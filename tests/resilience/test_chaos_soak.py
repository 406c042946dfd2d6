"""Chaos soak: kill, corrupt and resume factorizations until they agree.

The tentpole's acceptance criteria, exercised end to end:

* a CALU/CAQR run killed at an arbitrary point (in-process failure or a
  real ``kill -9`` of the worker process) resumes from its checkpoint
  and produces **bitwise-identical** factors to an uninterrupted run;
* ABFT checksums repair single-tile corruption of a trailing update in
  place, without aborting;
* repeated crash/resume cycles (the soak) always converge to the
  fault-free answer.

Long randomized variants are marked ``stress`` and excluded from the
default run (see ``pytest.ini`` addopts).
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.machine.presets import generic
from repro.resilience.checkpoint import SNAPSHOT_FORMAT, Checkpoint, FileStore, MemoryStore
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import assert_lu_ok, make_rng

SRC = str(Path(__file__).resolve().parents[2] / "src")


class CrashAfter:
    """Executor wrapper killing the run after *n* task bodies.

    Wraps every task closure with a shared counter; body ``n + 1``
    raises, which the inner executor surfaces as a structured
    :class:`RuntimeFailure` carrying the partial trace.
    """

    def __init__(self, inner, n: int):
        self.inner = inner
        self.n = n
        self.count = 0
        self._lock = threading.Lock()

    def run(self, graph, journal=None):
        for t in graph.tasks:
            fn = t.fn
            if fn is None:
                continue

            def wrapped(fn=fn, name=t.name):
                with self._lock:
                    self.count += 1
                    if self.count > self.n:
                        raise RuntimeError(f"chaos kill in {name}")
                fn()

            t.fn = wrapped
        if journal is not None:
            return self.inner.run(graph, journal=journal)
        return self.inner.run(graph)


def _threaded():
    return ThreadedExecutor(2)

def _simulated():
    return SimulatedExecutor(generic(2), execute=True)


# ----------------------------------------------------------------------
# CALU crash/resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_inner", [_threaded, _simulated], ids=["threaded", "simulated"])
@pytest.mark.parametrize("frac", [0.05, 0.25, 0.6, 0.95])
def test_calu_crash_resume_bitwise_identical(make_inner, frac):
    A0 = make_rng(0).standard_normal((64, 64))
    clean = calu(A0, b=8, tr=2)
    crash_at = max(1, int(len(clean.trace.records) * frac))
    ckpt = Checkpoint(MemoryStore())
    with pytest.raises(RuntimeFailure):
        calu(A0, b=8, tr=2, executor=CrashAfter(make_inner(), crash_at), checkpoint=ckpt)
    # A crash before the first snapshot legitimately restarts from
    # scratch; past it, the resume event must be in the trace.
    expect_resume = bool(ckpt.snapshot_chain())
    f = calu(A0, b=8, tr=2, executor=make_inner(), checkpoint=ckpt)
    if expect_resume:
        assert f.trace.resilience_summary().get("resume") == 1
    assert np.array_equal(f.lu, clean.lu)
    assert np.array_equal(f.piv, clean.piv)
    assert_lu_ok(A0, f.lu, f.piv)


def test_calu_coarse_interval_resume_identical():
    A0 = make_rng(1).standard_normal((64, 64))
    clean = calu(A0, b=8, tr=2)
    ckpt = Checkpoint(MemoryStore(), interval=3)
    with pytest.raises(RuntimeFailure):
        calu(A0, b=8, tr=2, executor=CrashAfter(_threaded(), 70), checkpoint=ckpt)
    f = calu(A0, b=8, tr=2, checkpoint=ckpt)
    assert np.array_equal(f.lu, clean.lu)
    assert np.array_equal(f.piv, clean.piv)


def test_calu_resume_of_completed_run_is_cheap_and_identical():
    A0 = make_rng(2).standard_normal((48, 48))
    ckpt = Checkpoint(MemoryStore())
    first = calu(A0, b=8, tr=2, checkpoint=ckpt)
    again = calu(A0, b=8, tr=2, checkpoint=ckpt)
    # Only the terminal left-swap task re-runs; everything else skips.
    assert len(again.trace.records) <= 2
    assert again.trace.resilience_summary().get("resume") == 1
    assert np.array_equal(first.lu, again.lu)
    assert np.array_equal(first.piv, again.piv)


def test_calu_checkpoint_namespace_rebinds_on_different_input():
    store = MemoryStore()
    A0 = make_rng(3).standard_normal((32, 32))
    A1 = make_rng(4).standard_normal((32, 32))
    calu(A0, b=8, tr=2, checkpoint=Checkpoint(store))
    # Same namespace, different matrix: stale snapshots must be
    # discarded (signature mismatch), not replayed into wrong factors.
    f = calu(A1, b=8, tr=2, checkpoint=Checkpoint(store))
    clean = calu(A1, b=8, tr=2)
    assert np.array_equal(f.lu, clean.lu)
    assert np.array_equal(f.piv, clean.piv)


@pytest.mark.parametrize("factor", [calu, caqr], ids=["calu", "caqr"])
def test_chain_in_another_snapshot_format_restarts_instead_of_half_reading(factor):
    """Snapshot payloads store panel state under ``panel{P}_{key}``; a
    chain whose signature names another layout (or, written before the
    field existed, none) is cleared and the run starts over."""
    A0 = make_rng(6).standard_normal((64, 48))
    clean = factor(A0, b=8, tr=2)
    store = MemoryStore()
    factor(A0, b=8, tr=2, checkpoint=Checkpoint(store))
    assert Checkpoint(store).snapshot_chain()
    # Relabel the finished chain as the old code's: same computation,
    # no format field.
    signature = json.loads(str(store.load_arrays("ckpt/meta")["signature"]))
    assert signature.pop("format") == SNAPSHOT_FORMAT
    store.save_arrays("ckpt/meta", {"signature": np.array(json.dumps(signature, sort_keys=True))})

    again = factor(A0, b=8, tr=2, checkpoint=Checkpoint(store))
    assert "resume" not in again.trace.resilience_summary()
    assert len(again.trace.records) == len(clean.trace.records) + len(
        [r for r in again.trace.records if r.name.startswith("C[")]
    )
    for name in ("lu", "piv") if factor is calu else ("packed", "R"):
        assert np.array_equal(getattr(again, name), getattr(clean, name))
    # ... and leaves a current-format chain behind: the next call resumes.
    third = factor(A0, b=8, tr=2, checkpoint=Checkpoint(store))
    assert third.trace.resilience_summary().get("resume") == 1


def test_line_log_signature_of_an_earlier_store_reads_as_unsigned(tmp_path):
    """A store written before the signature became a payload kept it as
    a line log, ``ckpt@meta.jsonl``: that reads as no signature, so the
    chain beside it is cleared and the run starts over."""
    A0 = make_rng(8).standard_normal((64, 64))
    clean = calu(A0, b=8, tr=2)
    root = tmp_path / "store"
    calu(A0, b=8, tr=2, checkpoint=Checkpoint(FileStore(root)))
    signature = str(FileStore(root).load_arrays("ckpt/meta")["signature"])
    os.unlink(root / "ckpt@meta.npc")
    (root / "ckpt@meta.jsonl").write_text(signature + "\n")
    assert Checkpoint(FileStore(root)).snapshot_chain()  # a complete chain, unsigned

    again = calu(A0, b=8, tr=2, checkpoint=Checkpoint(FileStore(root)))
    assert "resume" not in again.trace.resilience_summary()
    assert np.array_equal(again.lu, clean.lu)
    assert np.array_equal(again.piv, clean.piv)
    third = calu(A0, b=8, tr=2, checkpoint=Checkpoint(FileStore(root)))
    assert third.trace.resilience_summary().get("resume") == 1


# ----------------------------------------------------------------------
# Real process death: kill -9 semantics via os._exit in a child
# ----------------------------------------------------------------------
_CHILD = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    from repro.core.calu import calu
    from repro.resilience.checkpoint import Checkpoint, FileStore
    from repro.runtime.threaded import ThreadedExecutor

    root, crash_at = sys.argv[1], int(sys.argv[2])
    A = np.random.default_rng(1234).standard_normal((96, 96))

    class Killer:
        def __init__(self):
            self.inner = ThreadedExecutor(1)
            self.count = 0

        def run(self, graph, journal=None):
            for t in graph.tasks:
                fn = t.fn
                if fn is None:
                    continue
                def wrapped(fn=fn):
                    self.count += 1
                    if self.count > crash_at:
                        os._exit(9)  # no cleanup, no flush: kill -9
                    fn()
                t.fn = wrapped
            return self.inner.run(graph, journal=journal)

    calu(A, b=16, tr=2, executor=Killer(), checkpoint=Checkpoint(FileStore(root)))
    os._exit(0)
    """
)


def test_calu_survives_process_kill(tmp_path):
    root = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=SRC)
    # Crash after the second boundary task (C[1] is closure #44 in this
    # configuration): with async snapshot writes, reaching boundary K
    # guarantees boundary K-1 is durable, so C[0] must survive the kill.
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, root, "50"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 9, proc.stderr
    # A fresh process resumes from the surviving FileStore snapshots.
    A = np.random.default_rng(1234).standard_normal((96, 96))
    f = calu(A, b=16, tr=2, checkpoint=Checkpoint(FileStore(root)))
    assert f.trace.resilience_summary().get("resume") == 1
    clean = calu(A, b=16, tr=2)
    assert np.array_equal(f.lu, clean.lu)
    assert np.array_equal(f.piv, clean.piv)


# ----------------------------------------------------------------------
# CAQR crash/resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frac", [0.2, 0.5, 0.85])
def test_caqr_crash_resume_bitwise_identical(frac):
    A0 = make_rng(5).standard_normal((80, 48))
    clean = caqr(A0, b=8, tr=2)
    crash_at = max(1, int(len(clean.trace.records) * frac))
    ckpt = Checkpoint(MemoryStore())
    with pytest.raises(RuntimeFailure):
        caqr(A0, b=8, tr=2, executor=CrashAfter(_threaded(), crash_at), checkpoint=ckpt)
    expect_resume = bool(ckpt.snapshot_chain())
    f = caqr(A0, b=8, tr=2, checkpoint=ckpt)
    if expect_resume:
        assert f.trace.resilience_summary().get("resume") == 1
    assert np.array_equal(f.packed, clean.packed)
    assert np.array_equal(f.R, clean.R)
    # The implicit-Q tree factors were restored too: the resumed
    # factorization is fully usable, not just R-correct.
    assert np.array_equal(f.q_explicit(), clean.q_explicit())
    Q = f.q_explicit()
    assert np.linalg.norm(A0 - Q @ f.R) / np.linalg.norm(A0) < 1e-12


# ----------------------------------------------------------------------
# ABFT: single-tile corruption of a trailing update
# ----------------------------------------------------------------------
def test_abft_corrects_single_tile_corruption():
    A0 = make_rng(6).standard_normal((48, 48))
    plan = FaultPlan(0, corrupt_rate={"S": 1.0}, max_faults=1)
    f = calu(A0, b=8, tr=2, executor=ThreadedExecutor(1, fault_plan=plan), abft=True)
    counts = f.trace.resilience_summary()
    assert counts.get("fault_corrupt") == 1
    assert counts.get("abft_correct") == 1
    assert f.degraded_panels == ()
    assert_lu_ok(A0, f.lu, f.piv)


def test_abft_silent_without_faults():
    A0 = make_rng(7).standard_normal((48, 48))
    f = calu(A0, b=8, tr=2, abft=True)
    assert f.trace.events == []
    clean = calu(A0, b=8, tr=2)
    assert np.array_equal(f.lu, clean.lu)


# ----------------------------------------------------------------------
# The soak: randomized crash points, repeated resume cycles
# ----------------------------------------------------------------------
def _soak_once(seed: int, qr: bool = False) -> None:
    rng = np.random.default_rng(seed)
    shape = (80, 48) if qr else (64, 64)
    A0 = make_rng(seed).standard_normal(shape)
    run = (lambda **kw: caqr(A0, b=8, tr=2, **kw)) if qr else (
        lambda **kw: calu(A0, b=8, tr=2, **kw))
    clean = run()
    ckpt = Checkpoint(MemoryStore(), interval=int(rng.integers(1, 3)))
    f = None
    for _ in range(12):  # crash, resume, crash again ... until it completes
        crash_at = int(rng.integers(1, 120))
        try:
            f = run(executor=CrashAfter(_threaded(), crash_at), checkpoint=ckpt)
            break
        except RuntimeFailure:
            continue
    if f is None:
        f = run(checkpoint=ckpt)
    if qr:
        assert np.array_equal(f.packed, clean.packed)
        assert np.array_equal(f.q_explicit(), clean.q_explicit())
    else:
        assert np.array_equal(f.lu, clean.lu)
        assert np.array_equal(f.piv, clean.piv)


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_soak_calu(seed):
    _soak_once(seed)


def test_chaos_soak_caqr():
    _soak_once(2, qr=True)


@pytest.mark.stress
@pytest.mark.parametrize("seed", range(3, 23))
def test_chaos_soak_calu_stress(seed):
    _soak_once(seed)


@pytest.mark.stress
@pytest.mark.parametrize("seed", range(23, 33))
def test_chaos_soak_caqr_stress(seed):
    _soak_once(seed, qr=True)
