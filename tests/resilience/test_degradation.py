"""End-to-end fault injection on CALU/CAQR: recovery or a structured failure.

The contract under test: with seeded faults the factorizations either
complete with *correct* factors — retries and tournament replays
visible in the trace — or raise a structured ``RuntimeFailure`` naming
the offending task.  Never a hang, never silently wrong factors.
"""

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.driver import ALGORITHMS, compile
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import assert_lu_ok, make_rng


class _CorruptOneTask(FaultPlan):
    """Corrupt the output of the task named *name*, once: through its
    ``meta["corrupt"]`` hook, i.e. the candidate slot it wrote."""

    def __init__(self, name: str) -> None:
        super().__init__(0, max_faults=1)
        self.name = name

    def decide(self, task, attempt: int = 0) -> dict:
        return {"corrupt": True} if task.name == self.name and attempt == 0 else {}


class TestCALUDegradation:
    def test_corrupted_tournament_recomputed_from_clean_panel(self):
        A0 = make_rng(0).standard_normal((48, 48))
        # One corruption, hitting the first P task to finish (a leaf,
        # with n_workers=1): its candidate buffer is poisoned, the
        # merge detects it, and the finalize task replays the whole
        # tournament from the untouched panel — recovery ladder rung 1,
        # yielding factors bitwise-identical to a fault-free run.
        plan = FaultPlan(0, corrupt_rate={"P": 1.0}, max_faults=1)
        ex = ThreadedExecutor(1, fault_plan=plan)
        f = calu(A0, b=8, tr=4, executor=ex)
        assert_lu_ok(A0, f.lu, f.piv)
        assert f.recovered_panels == (0,)
        counts = f.trace.resilience_summary()
        assert counts.get("fault_corrupt") == 1
        assert counts.get("recompute", 0) >= 1
        clean = calu(A0, b=8, tr=4)
        assert np.array_equal(f.lu, clean.lu)
        assert np.array_equal(f.piv, clean.piv)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize(
        "driver, election",
        [("calu", "P[0]merge0<0,2"), ("tslu", "P[0]leaf0")],
        ids=["root_merge", "only_leaf"],
    )
    def test_corrupted_root_slot_replayed_bitwise(self, driver, election, backend):
        # The panel's last election (calu's root merge over 4 chunks;
        # a one-chunk tslu's only leaf) leaves its winners' factors in
        # the root slot for the finalize to install.  Poisoning that
        # slot sends the finalize to rung 1: the replayed last election
        # must restore those factors, hence lu and piv, bit for bit.
        A0 = make_rng(6).standard_normal((48, 48) if driver == "calu" else (48, 8))
        run = {
            "calu": lambda ex: calu(A0, b=8, tr=4, executor=ex),
            "tslu": lambda ex: tslu(A0, tr=1, executor=ex),
        }[driver]
        plan = _CorruptOneTask(election)
        if backend == "serial":
            ex = ThreadedExecutor(1, fault_plan=plan)
        else:
            ex = ProcessExecutor(2, fault_plan=plan)
        try:
            f = run(ex)
        finally:
            if backend == "process":
                ex.close()
        lu, piv = (f.lu, f.piv) if driver == "calu" else f
        clean = run(ThreadedExecutor(1))
        clean_lu, clean_piv = (clean.lu, clean.piv) if driver == "calu" else clean
        assert [ev.task for ev in plan.injected] == [election]
        assert np.array_equal(lu, clean_lu)
        assert np.array_equal(piv, clean_piv)
        if driver == "calu":
            assert f.recovered_panels == (0,)

    @pytest.mark.parametrize("guards", [True, False], ids=["guarded", "unguarded"])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_non_finite_panel_fails_its_finalize(self, backend, guards):
        # A NaN in the panel itself, loaded past the drivers' input
        # check: the tournament replay finds no clean panel to replay
        # from, so the finalize ends the run with a health failure,
        # guarded or not — never with factors.
        shared = backend == "process"
        plan = compile(
            ALGORITHMS["lu"], (48, 48), b=8, tr=4, tree=TreeKind.BINARY,
            guards=guards, shared=shared,
        )
        ex = ProcessExecutor(2) if shared else ThreadedExecutor(1)
        try:
            plan.load(make_rng(0).standard_normal((48, 48)))
            plan.A[40, 3] = np.nan
            with pytest.raises(RuntimeFailure) as ei:
                plan.run(ex)
        finally:
            if shared:
                ex.close()
            plan.close()
        assert ei.value.failure_kind == "health"
        assert ei.value.task == "F[0]"
        assert "non-finite panel in columns 0:8" in str(ei.value)

    def test_injected_raises_recovered_by_retry(self):
        A0 = make_rng(2).standard_normal((48, 48))
        # TSLU leaves are idempotent, and transient pre-execution
        # faults are always retryable -- the run must complete.
        plan = FaultPlan(3, raise_rate=0.4, transient=True)
        ex = ThreadedExecutor(
            2, fault_plan=plan, retry=RetryPolicy(max_retries=3, backoff_s=1e-4)
        )
        f = calu(A0, b=8, tr=4, executor=ex)
        assert_lu_ok(A0, f.lu, f.piv)
        assert f.trace.retries() >= 1

    def test_fault_free_run_has_empty_event_log(self):
        A0 = make_rng(3).standard_normal((32, 32))
        f = calu(A0, b=8, tr=4)
        assert_lu_ok(A0, f.lu, f.piv)
        assert f.trace is not None and f.trace.events == []


class TestCAQRCorruption:
    def test_matrix_corruption_never_silent(self):
        A0 = make_rng(4).standard_normal((40, 24))
        # CAQR has no pivoting fallback: a NaN poked into the matrix
        # must surface as a structured health failure.
        plan = FaultPlan(0, corrupt_rate=1.0, max_faults=1)
        ex = ThreadedExecutor(1, fault_plan=plan)
        with pytest.raises(RuntimeFailure) as ei:
            caqr(A0, b=8, tr=4, executor=ex)
        assert ei.value.failure_kind == "health"

    def test_caqr_retry_recovers_transient_raises(self):
        A0 = make_rng(5).standard_normal((40, 24))
        plan = FaultPlan(1, raise_rate={"S": 0.5}, transient=True)
        ex = ThreadedExecutor(
            2, fault_plan=plan, retry=RetryPolicy(max_retries=3, retry_all=True, backoff_s=1e-4)
        )
        f = caqr(A0, b=8, tr=4, executor=ex)
        Q = f.q_explicit()
        assert np.linalg.norm(A0 - Q @ f.R) / np.linalg.norm(A0) < 1e-12


def _chaos_calu(seed: int) -> None:
    A0 = make_rng(seed).standard_normal((48, 48))
    plan = FaultPlan(
        seed, raise_rate=0.2, corrupt_rate={"P": 0.15, "*": 0.02}, stall_rate=0.05,
        stall_s=0.002, transient=True, max_faults=6,
    )
    ex = ThreadedExecutor(
        2, fault_plan=plan, retry=RetryPolicy(max_retries=2, backoff_s=1e-4),
        stall_timeout=30.0,
    )
    try:
        f = calu(A0, b=8, tr=4, executor=ex)
    except RuntimeFailure as e:
        # Structured failure: diagnosable, with partial progress.
        assert e.failure_kind and e.trace is not None
    else:
        # Completed: the factors must be *correct*, not just finite.
        assert_lu_ok(A0, f.lu, f.piv)


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_calu_correct_or_structured(seed):
    _chaos_calu(seed)


@pytest.mark.stress
@pytest.mark.parametrize("seed", range(2, 22))
def test_chaos_calu_correct_or_structured_stress(seed):
    _chaos_calu(seed)
