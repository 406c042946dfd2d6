"""The shared driver (:mod:`repro.core.driver`) under all four entry points.

``calu``/``caqr``/``tsqr``/``tslu`` are one pipeline parameterised by
an algorithm record, so what used to be true of the driver that got the
fix is true of all four: the knobs are validated at the entry, every
executor (engine-backed or caller-made) gets the plan's materialized
graph, ``executor="auto"`` is asked about the real shape
and obeyed, and the input is never touched.
"""

from __future__ import annotations

import multiprocessing
import re

import numpy as np
import pytest

from repro.core import driver
from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.layout import BlockLayout
from repro.core.outofcore import tslu_ooc, tsqr_ooc
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.machine import autotune as at
from repro.machine.presets import generic
from repro.resilience import FaultPlan, RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.threaded import ThreadedExecutor
from repro.service import FactorizationService, ServiceConfig
from repro.verify.equivalence import compare_graphs
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


OUT_OF_CORE = {
    "tsqr_ooc": lambda A, **kw: tsqr_ooc(A, **{"tr": 4, **kw}),
    "tslu_ooc": lambda A, **kw: tslu_ooc(A, **{"tr": 4, **kw}),
}


@pytest.mark.parametrize("name", OUT_OF_CORE)
def test_out_of_core_entry_points_validate_like_every_other_driver(name, tmp_path):
    # tr=0 used to surface as BlockLayout's "Tr must be >= 1".
    with pytest.raises(ValueError, match="tr must be an int >= 1"):
        OUT_OF_CORE[name](_panel(), tr=0, spill_dir=tmp_path)
    assert not list(tmp_path.iterdir()), "rejected before a byte is staged"


def test_service_validates_tr_at_its_entry():
    # Used to fail only inside the plan build, after admission.
    A = np.random.default_rng(4).standard_normal((32, 32))
    with FactorizationService(ServiceConfig(cores=1, backend="threaded")) as svc:
        for request in (svc.factor, lambda A, **kw: svc.solve(A, A[:, 0], **kw)):
            with pytest.raises(ValueError, match="tr must be an int >= 1"):
                request(A, tr=0)
        assert svc.stats()["admission"]["admitted"] == 0


@pytest.mark.parametrize("name", DRIVERS)
def test_a_simulator_that_will_not_execute_is_refused_before_staging(name, monkeypatch):
    # caqr used to return factors off by 0.85 relative, calu to die of a
    # TypeError inside alg.result: the tasks were priced, never run.  The
    # simulator only prices, so every driver refuses it and names the
    # symbolic route.
    def staged(*args, **kwargs):
        raise AssertionError("staged a buffer for a run that cannot compute")

    monkeypatch.setattr(driver, "staged", staged)
    with pytest.raises(ValueError, match="symbolic program"):
        DRIVERS[name](_panel(), tr=2, executor=SimulatedExecutor(generic(2)))


def test_symbolic_programs_still_simulate_without_executing():
    program, _ = driver.ALGORITHMS["lu"].program(BlockLayout(96, 64, 16), 4, TreeKind.BINARY)
    trace = SimulatedExecutor(generic(4)).run(program)
    assert len(trace.records) == len(program.graph.tasks) and trace.makespan > 0.0


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
    assert isinstance(executor.got, TaskGraph)  # the plan's graph, emitted by compile
    assert np.array_equal(A, kept), "staging must leave the input alone"
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# executor="auto": asked about the real shape, recorded, and obeyed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DRIVERS)
def test_auto_consults_the_autotuner_and_runs_the_builders_graph(name, monkeypatch):
    """``tslu`` used to pass no hints (the tuner answered "no shape
    hints") and then threw the decision away; the graph that runs is
    the builder's, unchanged."""
    asked, ran = [], []

    def fake_autotune(**hints):
        asked.append(hints)
        return at.DispatchDecision(
            backend="threaded",
            n_workers=2,
            kind=hints["kind"],
            shape=(hints["m"], hints["n"]),
            b=hints["b"],
            tr=hints["tr"],
            predicted_s={},
            roundtrip_s=0.0,
            reason="test",
        )

    def spy_run(plan, executor, journal=None):
        trace = real_run(plan, executor, journal)
        ran.append(trace.stats["n_tasks"])
        return trace

    real_run = driver.Plan.run
    monkeypatch.setattr(at, "autotune", fake_autotune)
    A = _panel()
    m, n = A.shape
    want = _outputs(name, A.copy(), "threaded")
    monkeypatch.setattr(driver.Plan, "run", spy_run)
    got = _outputs(name, A, "auto")
    kind = "lu" if name in ("calu", "tslu") else "qr"
    tree = driver.ALGORITHMS[kind].tree
    b = 8 if name in ("calu", "caqr") else n
    assert asked == [{"kind": kind, "m": m, "n": n, "b": b, "tr": 3, "tree": tree}]
    program, _ = driver.ALGORITHMS[kind].program(BlockLayout(m, n, b), 3, tree, A=np.zeros((m, n)))
    assert ran == [len(program.materialize().tasks)]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
    if name in ("calu", "caqr"):
        trace = DRIVERS[name](A, b=8, tr=3, executor="auto").trace
        assert [e.kind for e in trace.events].count("autotune") == 1


@pytest.mark.parametrize("backend", ["threaded", pytest.param("process", marks=fork_only)])
def test_auto_runs_the_worker_count_it_priced(backend, monkeypatch):
    """``resolve_executor("auto")`` priced ``decision.n_workers`` and
    then built the executor with the caller's ``min(tr, 4)``."""
    decision = at.DispatchDecision(
        backend=backend,
        n_workers=3 if backend == "threaded" else 2,
        kind="lu",
        shape=(72, 24),
        b=8,
        tr=8,
        predicted_s={},
        roundtrip_s=0.0,
        reason="test",
    )
    monkeypatch.setattr(at, "autotune", lambda **hints: decision)
    trace = calu(_panel(), b=8, tr=8, executor="auto").trace
    assert trace.n_cores == decision.n_workers  # used to be min(tr, 4) == 4


# ---------------------------------------------------------------------------
# compile() -> Plan: what factorize runs once is what the service keeps
# ---------------------------------------------------------------------------


def _factors(f) -> list[np.ndarray]:
    if hasattr(f, "piv"):
        return [f.lu, f.piv]
    arrays = [f.packed]
    for store in f.panels:
        flat = store.to_arrays()
        arrays += [flat[k] for k in sorted(flat)]
    return arrays


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("backend", ["threaded", pytest.param("process", marks=fork_only)])
@pytest.mark.parametrize("name", ["calu", "caqr"])
def test_one_plan_runs_many_matrices(name, backend, dtype):
    rng = np.random.default_rng(11)
    A1, A2 = (rng.standard_normal((72, 40)).astype(dtype) for _ in range(2))
    alg = driver.ALGORITHMS["lu" if name == "calu" else "qr"]
    knobs = {"b": 8, "tr": 3, "tree": alg.tree}
    executor = EXECUTORS[backend]()
    plan = driver.compile(alg, A1, shared=backend == "process", **knobs)
    try:
        for A in (A1, A2, A1):
            plan.load(A)
            got = _factors(plan.result(plan.run(executor)))
            want = _factors(DRIVERS[name](A, executor=backend, **knobs))
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w)
    finally:
        plan.close()
        if backend == "process":
            executor.close()


@pytest.mark.parametrize("kind,shape", [("lu", (96, 96)), ("qr", (128, 48))])
def test_a_service_plan_is_the_compiled_program_task_for_task(kind, shape):
    """The service used to rewrite its plans' graphs (fusing tasks into
    super-tasks); what it runs is what ``compile`` builds and the golden
    graphs pin: the same names, kinds and edges."""
    b, tr = 16, 3
    alg = driver.ALGORITHMS[kind]
    with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
        key, plan = svc._plan_for(kind, shape, (b, tr, alg.tree))
        svc._plans.checkin(key, plan)
    assert isinstance(plan, driver.Plan)
    want_plan = driver.compile(alg, shape, b=b, tr=tr, tree=alg.tree)
    try:
        want, got = want_plan.program.materialize(), plan.program.materialize()
    finally:
        want_plan.close()
    assert [(t.name, t.kind) for t in got.tasks] == [(t.name, t.kind) for t in want.tasks]
    assert compare_graphs(got, want) == []


@fork_only
def test_close_unlinks_the_plans_arena_and_is_idempotent():
    import os

    alg = driver.ALGORITHMS["lu"]
    plan = driver.compile(alg, (64, 64), b=16, tr=2, tree=alg.tree, shared=True)
    plan.load(np.random.default_rng(12).standard_normal((64, 64)))
    segments = [f"/dev/shm/{seg.name}" for seg in plan.store.arena._segments]
    assert segments and all(os.path.exists(path) for path in segments)
    plan.close()
    plan.close()
    assert not any(os.path.exists(path) for path in segments)


@pytest.mark.parametrize("kind", ["lu", "qr"])
def test_load_measures_the_matrix_only_for_an_armed_growth_monitor(kind, monkeypatch):
    """Only CALU's panel workspaces arm the pivot-growth monitor: loading
    a CALU plan re-arms it at the new matrix's magnitude, loading a CAQR
    plan makes no pass over the matrix for it."""
    alg = driver.ALGORITHMS[kind]
    rng = np.random.default_rng(13)
    A1, A2 = rng.standard_normal((64, 48)), 1e3 * rng.standard_normal((64, 48))
    plan = driver.compile(alg, A1, b=16, tr=2, tree=alg.tree)
    passes, real_abs = [], np.abs
    try:
        with monkeypatch.context() as patch:
            patch.setattr(np, "abs", lambda x, *args, **kw: passes.append(x) or real_abs(x, *args, **kw))
            plan.load(A2)
        monitors = [panel.absmax for panel in plan.state]
    finally:
        plan.close()
    if kind == "qr":
        assert passes == [] and monitors == [None] * len(monitors)
    else:
        assert len(passes) == 1 and passes[0] is A2
        assert monitors == [float(np.abs(A2).max())] * len(monitors)


# ---------------------------------------------------------------------------
# One panel loop: a standalone panel is the full algorithm over b = n
# ---------------------------------------------------------------------------

#: (m, n, tr); (100, 30, 4) and (70, 16, 4) end in a chunk shorter than n,
#: which TSLU alone used to keep as a tournament leaf.
PANEL_SHAPES = [(2560, 32, 8), (1003, 16, 5), (100, 30, 4), (70, 16, 4), (50, 50, 3)]


def test_a_panel_record_is_the_full_algorithm_renamed():
    assert driver.TSLU.program is driver.ALGORITHMS["lu"].program
    assert driver.TSQR.program is driver.ALGORITHMS["qr"].program
    assert driver.TSLU.panel and driver.TSQR.panel


@pytest.mark.parametrize("tree", [TreeKind.BINARY, TreeKind.FLAT], ids=lambda t: t.value)
@pytest.mark.parametrize("m,n,tr", PANEL_SHAPES)
def test_a_panel_is_bitwise_the_one_panel_factorization(m, n, tr, tree):
    A = np.random.default_rng(21).standard_normal((m, n))
    lu, piv = tslu(A, tr=tr, tree=tree)
    full = calu(A, b=n, tr=tr, tree=tree)
    assert np.array_equal(lu, full.lu) and np.array_equal(piv, full.piv)
    panel, full = tsqr(A, tr=tr, tree=tree), caqr(A, b=n, tr=tr, tree=tree)
    assert np.array_equal(panel.R, full.R)
    (store,) = full.panels
    got, want = panel.store.to_arrays(), store.to_arrays()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def _hooks(graph) -> set[tuple[str, str]]:
    return {(t.name, hook) for t in graph.tasks for hook in ("health", "corrupt") if hook in t.meta}


def test_the_panel_drivers_follow_the_guard_rule():
    """``guards`` arms the hooks, as for calu/caqr: tslu used to arm its
    tournament guards whatever the caller said, tsqr armed none."""
    for alg in (driver.TSLU, driver.TSQR):
        executor = Sequential()
        driver.factorize(alg, _panel(), tr=3, tree=alg.tree, executor=executor, guards=False)
        assert _hooks(executor.got) == set()
    executor = Sequential()
    tslu(_panel(), tr=3, executor=executor)
    assert {("P[0]leaf0", "health"), ("P[0]leaf0", "corrupt"), ("F[0]", "health")} <= _hooks(
        executor.got
    )
    executor = Sequential()
    tsqr(_panel(), tr=3, executor=executor)
    assert _hooks(executor.got) == {
        (name, "health") for name in ("P[0]leaf0", "P[0]leaf1", "P[0]leaf2", "P[0]merge0<1,2")
    }


def test_a_nan_in_a_tsqr_leaf_is_a_structured_failure():
    # The guard of the leaf whose rows hold the NaN names it; the parent
    # commit only noticed at the end of the run, in the result's last
    # line of defense.  The driver aims the plan at its working buffer.
    A = _panel()
    plan = FaultPlan(seed=0, corrupt_rate={"P": 1.0, "*": 0.0}, max_faults=1)
    with pytest.raises(RuntimeFailure) as caught:
        tsqr(A, tr=3, executor=ThreadedExecutor(1, fault_plan=plan))
    (event,) = plan.injected
    assert event.kind == "fault_corrupt" and event.task == "P[0]leaf0"
    row = int(re.search(r"target\[(\d+)\]", event.detail)[1]) // A.shape[1]
    assert caught.value.failure_kind == "health"
    assert caught.value.task == f"P[0]leaf{row // 24}"  # tr=3 leaves of 24 rows
