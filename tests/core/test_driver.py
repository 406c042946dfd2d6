"""The shared driver (:mod:`repro.core.driver`) under all four entry points.

``calu``/``caqr``/``tsqr``/``tslu`` are one pipeline parameterised by
an algorithm record, so what used to be true of the driver that got the
fix is true of all four: the knobs are validated at the entry, engine-
backed executors stream the program while a caller-made one gets the
materialized graph, ``executor="auto"`` is asked about the real shape
and obeyed, and the input is never touched without ``overwrite``.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import driver
from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.machine import autotune as at
from repro.machine.presets import generic
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.program import GraphProgram
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.threaded import ThreadedExecutor
from repro.service import FactorizationService, ServiceConfig
from tests.core.test_staging import _outputs

DRIVERS = {"calu": calu, "caqr": caqr, "tsqr": tsqr, "tslu": tslu}
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests require the fork start method",
)


def _panel():
    return np.random.default_rng(3).standard_normal((72, 24))


# ---------------------------------------------------------------------------
# Knobs are validated once, at the entry (each case fails at the parent commit)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DRIVERS)
def test_tr_below_one_is_named(name):
    # Used to surface as "n_workers must be >= 1": a parameter the
    # caller never passed, from the default executor built first.
    with pytest.raises(ValueError, match=r"\btr\b.*>= 1"):
        DRIVERS[name](_panel(), tr=0)


@pytest.mark.parametrize("name", DRIVERS)
def test_unknown_leaf_kernel_names_the_valid_set(name):
    # Used to run silently: the ops fell through to getf2/geqr2.
    valid = "rgetf2.*getf2" if name in ("calu", "tslu") else "geqr3.*geqr2"
    with pytest.raises(ValueError, match=f"leaf_kernel.*nope.*{valid}"):
        DRIVERS[name](_panel(), leaf_kernel="nope")


@pytest.mark.parametrize("fuse", [-3, 0, 2.5, "auto"])
@pytest.mark.parametrize("name", ["calu", "caqr", "tsqr"])
def test_nonsense_fuse_is_rejected(name, fuse):
    # fuse=-3 used to mean "no fusion", silently.
    with pytest.raises(ValueError, match="fuse"):
        DRIVERS[name](_panel(), fuse=fuse)


def test_service_validates_tr_at_its_entry():
    # Used to fail only inside the plan build, after admission.
    A = np.random.default_rng(4).standard_normal((32, 32))
    with FactorizationService(ServiceConfig(cores=1, backend="threaded")) as svc:
        for request in (svc.factor, lambda A, **kw: svc.solve(A, A[:, 0], **kw)):
            with pytest.raises(ValueError, match="tr must be an int >= 1"):
                request(A, tr=0)
        assert svc.stats()["admission"]["admitted"] == 0


# ---------------------------------------------------------------------------
# What each kind of executor is handed, and what comes back
# ---------------------------------------------------------------------------


class Sequential:
    """A caller-made (duck-typed) executor: not engine-backed."""

    def run(self, source):
        self.got = source
        source.run_sequential()


EXECUTORS = {
    "threaded": lambda: ThreadedExecutor(2),
    "stealing": lambda: WorkStealingExecutor(2),
    "simulated": lambda: SimulatedExecutor(generic(2), execute=True),
    "process": lambda: ProcessExecutor(2),
    "duck": Sequential,
}


@pytest.mark.parametrize(
    "backend", [pytest.param(b, marks=fork_only) if b == "process" else b for b in EXECUTORS]
)
@pytest.mark.parametrize("name", DRIVERS)
def test_engine_backed_executors_stream_and_duck_typed_get_the_graph(name, backend, monkeypatch):
    A = _panel()
    kept = A.copy()
    want = _outputs(name, A.copy(), "threaded")
    executor = EXECUTORS[backend]()
    if backend != "duck":
        real_run = executor.run

        def run(source, *args, **kwargs):
            executor.got = source
            return real_run(source, *args, **kwargs)

        monkeypatch.setattr(executor, "run", run)
    try:
        got = _outputs(name, A, executor)
    finally:
        if backend == "process":
            executor.close()
    assert isinstance(executor.got, TaskGraph if backend == "duck" else GraphProgram)
    assert np.array_equal(A, kept), "overwrite=False must leave the input alone"
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# executor="auto": asked about the real shape, recorded, and obeyed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DRIVERS)
def test_auto_consults_the_autotuner_with_the_shape_and_fuses_to_it(name, monkeypatch):
    """``tslu`` used to pass no hints (the tuner answered "no shape
    hints") and then threw the decision away."""
    asked, fused = [], []

    def fake_autotune(**hints):
        asked.append(hints)
        return at.DispatchDecision(
            backend="threaded",
            max_ops=4,
            n_workers=2,
            kind=hints["kind"],
            shape=(hints["m"], hints["n"]),
            b=hints["b"],
            tr=hints["tr"],
            predicted_s={},
            roundtrip_s=0.0,
            reason="test",
        )

    def spy_fuse(program, *, max_ops):
        fused.append(max_ops)
        return real_fuse(program, max_ops=max_ops)

    real_fuse = driver.fuse_program
    monkeypatch.setattr(at, "autotune", fake_autotune)
    monkeypatch.setattr(driver, "fuse_program", spy_fuse)
    A = _panel()
    m, n = A.shape
    want = _outputs(name, A.copy(), "threaded")
    got = _outputs(name, A, "auto")
    tree = TreeKind.BINARY if name in ("calu", "tslu") else TreeKind.FLAT
    assert asked == [
        {
            "kind": "lu" if name in ("calu", "tslu") else "qr",
            "m": m,
            "n": n,
            "b": 8 if name in ("calu", "caqr") else n,
            "tr": 3,
            "tree": tree,
        }
    ]
    assert fused == [4]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w), "fusion must not move a bit"
    if name in ("calu", "caqr"):
        trace = DRIVERS[name](A, b=8, tr=3, executor="auto").trace
        assert [e.kind for e in trace.events].count("autotune") == 1
