"""FactorizationService integration tests.

Covers result parity with the direct drivers, plan-cache reuse,
concurrent clients on the shared pool, overload shedding, deadline
stages, circuit-breaker degradation/recovery, drain semantics and the
``repro.linalg`` entry points.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.calu import calu
from repro.runtime import sync
from tests.conftest import assert_lock_sanity, make_rng
from repro.core.trees import TreeKind
from repro.linalg import lstsq as linalg_lstsq
from repro.linalg import solve as linalg_solve
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RuntimeFailure
from repro.service import (
    AdmissionRejected,
    DeadlineExceeded,
    FactorizationService,
    ServiceConfig,
)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests require the fork start method",
)


def make_problem(rng, n=96, nrhs=None):
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    rhs = rng.standard_normal(n if nrhs is None else (n, nrhs))
    return A, rhs


class TestParityThreaded:
    """Bitwise parity with the direct drivers on the threaded backend."""

    def test_solve_matches_direct(self):
        rng = make_rng(0)
        A, rhs = make_problem(rng)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x = svc.solve(A, rhs)
        assert np.array_equal(x, linalg_solve(A, rhs, cores=2))

    def test_factor_matches_direct_and_is_detached(self):
        rng = make_rng(1)
        A, _ = make_problem(rng)
        ref = calu(A, b=32, tr=32, tree=TreeKind.BINARY)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            f = svc.factor(A, b=32, tr=32, tree=TreeKind.BINARY)
            assert np.array_equal(f.lu, ref.lu)
            assert np.array_equal(f.piv, ref.piv)
            # Detached: a later request on the same shape must not be
            # able to mutate an already-returned factorization.
            lu_before = f.lu.copy()
            svc.factor(rng.standard_normal(A.shape) + A.shape[0] * np.eye(A.shape[0]))
            assert np.array_equal(f.lu, lu_before)

    def test_lstsq_matches_direct(self):
        rng = make_rng(2)
        A = rng.standard_normal((128, 48))
        rhs = rng.standard_normal(128)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x = svc.lstsq(A, rhs)
        assert np.array_equal(x, linalg_lstsq(A, rhs, cores=2))

    def test_solve_report_and_refinement_path(self):
        rng = make_rng(3)
        A, rhs = make_problem(rng, n=64)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x, rep = svc.solve(A, rhs, report=True)
        xd, repd = linalg_solve(A, rhs, cores=2, report=True)
        assert np.array_equal(x, xd)
        assert rep.residual == repd.residual
        assert rep.refine_steps == repd.refine_steps


@fork_only
class TestParityProcess:
    def test_solve_matches_direct_process(self):
        rng = make_rng(4)
        A, rhs = make_problem(rng)
        with FactorizationService(ServiceConfig(cores=2, backend="process")) as svc:
            x = svc.solve(A, rhs)
        assert np.array_equal(x, linalg_solve(A, rhs, cores=2, executor="process"))

    def test_lstsq_matches_direct_process(self):
        rng = make_rng(5)
        A = rng.standard_normal((128, 48))
        rhs = rng.standard_normal(128)
        with FactorizationService(ServiceConfig(cores=2, backend="process")) as svc:
            x = svc.lstsq(A, rhs)
        assert np.array_equal(x, linalg_lstsq(A, rhs, cores=2, executor="process"))


class TestPlanCache:
    def test_repeat_solves_hit_cache_and_are_deterministic(self):
        rng = make_rng(6)
        A, rhs = make_problem(rng)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x1 = svc.solve(A, rhs)
            x2 = svc.solve(A, rhs)
            stats = svc.stats()["plans"]
        assert np.array_equal(x1, x2)
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_distinct_shapes_get_distinct_plans(self):
        rng = make_rng(7)
        A1, r1 = make_problem(rng, n=64)
        A2, r2 = make_problem(rng, n=96)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            svc.solve(A1, r1)
            svc.solve(A2, r2)
            stats = svc.stats()["plans"]
        assert stats["builds"] == 2 and stats["cached"] == 2

    def test_cache_eviction_bounded_by_max_plans(self):
        rng = make_rng(8)
        cfg = ServiceConfig(cores=2, backend="threaded", max_plans=2)
        with FactorizationService(cfg) as svc:
            for n in (48, 64, 80, 96):
                A, rhs = make_problem(rng, n=n)
                svc.solve(A, rhs)
            stats = svc.stats()["plans"]
        assert stats["cached"] <= 2
        assert stats["builds"] == 4


BACKENDS = ["threaded", pytest.param("process", marks=fork_only)]


def test_pool_keeps_max_plans_idle_and_evicts_the_least_recently_used():
    rng = make_rng(31)
    problems = [make_problem(rng, n=n) for n in (32, 48, 64, 80)]
    with FactorizationService(ServiceConfig(cores=2, backend="threaded", max_plans=3)) as svc:
        for A, rhs in problems[:3]:
            svc.solve(A, rhs)
        assert svc.stats()["plans"] == {"cached": 3, "hits": 0, "builds": 3, "ephemeral": 0}
        svc.solve(*problems[0])  # a hit: n=32 is now the most recently used
        svc.solve(*problems[3])  # a fourth shape pushes out n=48, the oldest
        assert svc.stats()["plans"] == {"cached": 3, "hits": 1, "builds": 4, "ephemeral": 0}
        svc.solve(*problems[0])
        svc.solve(*problems[1])
        assert svc.stats()["plans"] == {"cached": 3, "hits": 2, "builds": 5, "ephemeral": 0}


@pytest.mark.parametrize("backend", BACKENDS)
def test_more_clients_than_pooled_plans(backend):
    """Three requests of one shape at once over a pool that keeps one
    plan: nobody waits for a plan, the extra ones are built and closed
    on the way back, and no answer or arena is lost in the shuffle."""
    from repro.runtime import shm

    A, rhs = make_problem(make_rng(30), n=64)
    ref = linalg_solve(A, rhs, cores=2, executor="process" if backend == "process" else None)
    results: list = []
    errors: list = []
    before = set(shm._LIVE_ARENAS)
    cfg = ServiceConfig(cores=2, backend=backend, max_active=3, max_plans=1)
    with FactorizationService(cfg) as svc:

        def client():
            try:
                for _ in range(4):
                    results.append(svc.solve(A, rhs))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        plans = svc.stats()["plans"]
        failures = svc.breaker.snapshot()["recent_failures"]
        arenas = set(shm._LIVE_ARENAS) - before
        live = sum(not arena._destroyed for arena in arenas)
    assert not errors and len(results) == 12
    assert all(np.array_equal(x, ref) for x in results)
    assert plans["hits"] + plans["builds"] + plans["ephemeral"] == 12
    assert plans["builds"] >= 1 and plans["cached"] <= 1
    assert failures == 0
    assert live == (plans["cached"] if backend == "process" else 0)
    assert all(arena._destroyed for arena in arenas)


class TestCachedPlanState:
    """A cached plan owes each request a clean slate and armed guards.

    The per-panel state (candidate counts, ``[corrupted, recomputed]``
    flags, pivots) lives in store buffers only, and
    the driver's ``Plan.load`` resets it there — the same place on both
    backends.  Both regressions below fail on the parent commit.
    """

    PARAMS = (16, 3, TreeKind.BINARY)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_run_after_corrupted_run_on_one_plan(self, backend):
        from repro.core.driver import ALGORITHMS, compile
        from repro.runtime.engine import ExecutionEngine

        A = make_rng(21).standard_normal((96, 96))
        ref = calu(A, b=16, tr=3, tree=TreeKind.BINARY)
        b, tr, tree = self.PARAMS
        with FactorizationService(ServiceConfig(cores=2, backend=backend)) as svc:
            # The plan the service would cache for this key.
            plan = compile(
                ALGORITHMS["lu"],
                A.shape,
                b=b,
                tr=tr,
                tree=tree,
                shared=backend == "process",
            )
            pool = svc._executor.pool if backend == "process" else None

            def run(fault_plan):
                plan.load(A)
                engine = ExecutionEngine(
                    n_workers=2,
                    fault_plan=fault_plan,
                    process_pool=pool,
                )
                trace = plan.run(engine)
                f = plan.result(trace)
                return trace, (f.piv, f.recovered_panels)

            try:
                faulty = FaultPlan(corrupt_rate={"P": 1.0, "*": 0.0}, max_faults=1)
                trace1, (piv1, recovered1) = run(faulty)
                assert [e.kind for e in trace1.events].count("recompute") == 1
                assert recovered1 == (0,)
                assert np.array_equal(piv1, ref.piv)

                trace2, (piv2, recovered2) = run(None)
                assert "recompute" not in {e.kind for e in trace2.events}
                assert recovered2 == ()
                assert np.array_equal(piv2, ref.piv)
                assert np.array_equal(plan.A, ref.lu)
            finally:
                plan.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degradation_does_not_outlive_its_request(self, backend):
        # A corrupted tournament is replayed on the first request.  A
        # stale ``recomputed`` flag would report a recovery on every
        # later request served by the same cached plan.
        A = make_rng(22).standard_normal((96, 96))
        ref = calu(A, b=16, tr=3, tree=TreeKind.BINARY)
        plans = iter([FaultPlan(corrupt_rate={"P": 1.0, "*": 0.0}, max_faults=1)])
        cfg = ServiceConfig(
            cores=2, backend=backend, fault_plan_factory=lambda: next(plans, None)
        )
        with FactorizationService(cfg) as svc:
            b, tr, tree = self.PARAMS
            first = svc.factor(A, b=b, tr=tr, tree=tree)
            assert first.recovered_panels == (0,)
            for _ in range(2):
                later = svc.factor(A, b=b, tr=tr, tree=tree)
                assert later.recovered_panels == ()
                assert "recompute" not in {e.kind for e in later.trace.events}
                assert np.array_equal(later.piv, ref.piv)
                assert np.array_equal(later.lu, ref.lu)
            assert svc.stats()["plans"]["builds"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_monitor_is_armed_on_every_request_of_a_plan(self, backend):
        # A Wilkinson-type matrix: partial (and tournament) pivoting
        # never swaps, and the last column doubles every step —
        # growth 2^(n-1), far above DEFAULT_GROWTH_LIMIT.
        n = 40
        W = np.eye(n) - np.tril(np.ones((n, n)), -1)
        W[:, -1] = 1.0
        direct = calu(W, b=8, tr=2, tree=TreeKind.BINARY)
        assert any("pivot growth" in e.detail for e in direct.trace.events)
        with FactorizationService(ServiceConfig(cores=2, backend=backend)) as svc:
            for _ in range(3):
                f = svc.factor(W, b=8, tr=2, tree=TreeKind.BINARY)
                growth = [e for e in f.trace.events if "pivot growth" in e.detail]
                assert growth and growth[0].kind == "health" and not growth[0].fatal
                assert growth[0].value > 1e8
                assert np.array_equal(f.lu, direct.lu)
            # ... and a benign matrix on the same plan raises no alarm:
            # the limit is measured against *this* request's magnitude.
            calm = svc.factor(make_rng(23).standard_normal((n, n)), b=8, tr=2, tree=TreeKind.BINARY)
            assert not [e for e in calm.trace.events if e.kind == "health"]
            assert svc.stats()["plans"]["builds"] == 1


class TestConcurrency:
    def test_concurrent_clients_all_correct(self):
        rng = make_rng(9)
        problems = [make_problem(rng, n=64) for _ in range(6)]
        refs = [linalg_solve(A, rhs, cores=2) for A, rhs in problems]
        results: list = [None] * len(problems)
        errors: list = []

        cfg = ServiceConfig(cores=2, backend="threaded", max_active=3, max_queue=16)
        # Run under the lock-witness sanitizer: six client threads over a
        # shared pool is the densest contention the threaded backend sees.
        with sync.witnessing() as w, FactorizationService(cfg) as svc:

            def client(i):
                try:
                    results[i] = svc.solve(*problems[i])
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append((i, exc))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(problems))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        for got, want in zip(results, refs):
            assert np.array_equal(got, want)
        assert_lock_sanity(w)


@fork_only
def test_two_process_clients_never_stack_parent_lane_tasks(monkeypatch):
    """The pool has one parent lane, not one per engine: the dispatchers
    of concurrent requests take turns on it (the pool's token), so no
    two tasks run in the parent process at once; the factors do not move."""
    from repro.runtime import engine as engine_mod

    spans: list = []
    finish = engine_mod._RealClockRun._finish

    def recording(run, task, core, start, end):
        if core == run.engine.n_workers - 1:  # the parent lane of a 2-lane run
            spans.append((run.t0 + start, run.t0 + end))
        return finish(run, task, core, start, end)

    monkeypatch.setattr(engine_mod._RealClockRun, "_finish", recording)
    rng = make_rng(31)
    problems = [make_problem(rng, n=160) for _ in range(4)]
    refs = [linalg_solve(A, rhs, cores=2) for A, rhs in problems]
    spans.clear()
    results: dict = {}
    errors: list = []
    with FactorizationService(ServiceConfig(cores=2, backend="process")) as svc:
        assert svc._executor.pool.n_workers == 1

        def client(k):
            try:
                for i in range(6):
                    j = (k + i) % len(problems)
                    results[k, i] = (j, svc.solve(*problems[j]))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not errors and len(results) == 12
    for j, x in results.values():
        assert np.array_equal(x, refs[j])
    assert len(spans) > 12  # the parent lane ran tasks of the requests
    spans.sort()
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end, "two parent-lane tasks overlapped"


class TestOverload:
    def _slow_cfg(self, **kw):
        # Every panel task stalls, so each request takes >= stall_s.
        plan = dict(stall_rate={"P": 1.0}, stall_s=0.25)
        return ServiceConfig(
            cores=2,
            backend="threaded",
            fault_plan_factory=lambda: FaultPlan(seed=0, **plan),
            **kw,
        )

    def test_overload_sheds_fast_with_structured_rejection(self):
        rng = make_rng(10)
        A, rhs = make_problem(rng, n=64)
        cfg = self._slow_cfg(max_active=1, max_queue=0)
        outcomes: list = []
        lock = threading.Lock()
        with FactorizationService(cfg) as svc:

            def client():
                t0 = time.monotonic()
                try:
                    svc.solve(A, rhs)
                    with lock:
                        outcomes.append(("ok", time.monotonic() - t0))
                except AdmissionRejected as exc:
                    with lock:
                        outcomes.append(("shed", time.monotonic() - t0, exc))

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = svc.stats()["admission"]
        kinds = [o[0] for o in outcomes]
        assert len(outcomes) == 4  # nobody hung
        assert "ok" in kinds and "shed" in kinds
        assert stats["shed"] == kinds.count("shed")
        for o in outcomes:
            if o[0] == "shed":
                assert o[1] < 0.1  # fast fail, no queue camping
                assert o[2].retry_after_s >= 0.0
                assert o[2].failure_kind == "admission"

    def test_deadline_expires_while_queued(self):
        rng = make_rng(11)
        A, rhs = make_problem(rng, n=64)
        cfg = self._slow_cfg(max_active=1, max_queue=4)
        with FactorizationService(cfg) as svc:
            blocker = threading.Thread(target=lambda: svc.solve(A, rhs))
            blocker.start()
            time.sleep(0.05)  # let the blocker occupy the only slot
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded) as exc:
                svc.solve(A, rhs, deadline_s=0.1)
            waited = time.monotonic() - t0
            # The wait is timed to the deadline itself; nothing polls.
            assert "repro-svc-reaper" not in {t.name for t in threading.enumerate()}
            blocker.join(timeout=120)
        assert exc.value.stage == "queued"
        assert 0.1 <= waited < 0.35

    def test_strict_deadline_post_run(self):
        rng = make_rng(12)
        A, rhs = make_problem(rng, n=48)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            with pytest.raises(DeadlineExceeded) as exc:
                svc.solve(A, rhs, deadline_s=1e-4)
        # A result computed after its deadline is still a failure
        # (strict semantics); which stage catches it depends on timing.
        assert exc.value.stage in ("queued", "plan", "run", "post-run")
        assert exc.value.failure_kind == "deadline"


@fork_only
def test_a_plan_whose_run_was_aborted_is_closed_not_reloaded(tmp_path, monkeypatch):
    """After a watchdog abort an abandoned op may still be executing on a
    worker and writing into the plan's arena: that plan must not be the
    buffer the next request loads its matrix into."""
    from repro.runtime import ops, shm

    slow = tmp_path / "slow"
    leaf = ops.OPS["tslu_leaf"]

    def sleepy_leaf(payload):  # inherited by the workers at fork
        if slow.exists():
            slow.unlink(missing_ok=True)  # once (per racing worker), then the real op
            time.sleep(0.5)
        leaf(payload)

    monkeypatch.setitem(ops.OPS, "tslu_leaf", sleepy_leaf)
    A, rhs = make_problem(make_rng(33), n=64)
    ref = linalg_solve(A, rhs, cores=2, executor="process")
    before = set(shm._LIVE_ARENAS)
    slow.touch()
    cfg = ServiceConfig(
        cores=2, backend="process", task_timeout_s=0.1, task_retries=0, max_attempts=1
    )
    with FactorizationService(cfg) as svc:
        with pytest.raises(RuntimeFailure) as exc:
            svc.solve(A, rhs)
        assert exc.value.failure_kind in ("timeout", "worker_death")
        aborted = set(shm._LIVE_ARENAS) - before
        assert aborted and all(arena._destroyed for arena in aborted)
        assert svc.stats()["plans"] == {"cached": 0, "hits": 0, "builds": 1, "ephemeral": 0}
        time.sleep(0.7)  # the abandoned ops finish, writing into the closed arena
        x = svc.solve(A, rhs)
        assert svc.stats()["plans"] == {"cached": 1, "hits": 0, "builds": 2, "ephemeral": 0}
    assert np.array_equal(x, ref)


@fork_only
class TestBreakerLifecycle:
    def test_trip_degrade_recover(self):
        rng = make_rng(13)
        A, rhs = make_problem(rng, n=64)
        ref = linalg_solve(A, rhs, cores=2)

        calls = {"n": 0}

        def factory():
            # The first two engine runs stall until the task watchdog
            # kills them; later runs (degraded + probe) are clean.
            calls["n"] += 1
            if calls["n"] <= 2:
                return FaultPlan(seed=0, stall_rate=1.0, stall_s=5.0)
            return None

        cfg = ServiceConfig(
            cores=2,
            backend="process",
            task_timeout_s=0.1,
            task_retries=0,
            max_attempts=1,
            breaker_threshold=2,
            breaker_window_s=30.0,
            breaker_open_s=0.2,
            fault_plan_factory=factory,
        )
        with FactorizationService(cfg) as svc:
            for _ in range(2):
                with pytest.raises(RuntimeFailure) as exc:
                    svc.solve(A, rhs)
                assert exc.value.failure_kind in ("timeout", "stall", "worker_death")
            assert svc.breaker.state == "open"

            # Degraded request: served by the threaded fallback, still
            # bitwise-correct (same plan, same schedule semantics).
            x = svc.solve(A, rhs)
            assert np.array_equal(x, ref)
            assert svc.breaker.state == "open"

            time.sleep(0.3)  # cool-down elapses -> next request probes
            x = svc.solve(A, rhs)
            assert np.array_equal(x, ref)
            assert svc.breaker.state == "closed"

            states = [(frm, to) for _, frm, to, _ in svc.breaker.transitions]
            assert states == [
                ("closed", "open"),
                ("open", "half_open"),
                ("half_open", "closed"),
            ]


    def test_probe_that_leaves_by_another_exception_frees_its_slot(self):
        A, rhs = make_problem(make_rng(19), n=64)
        ref = linalg_solve(A, rhs, cores=2)
        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("no space left for the fault plan")
            return None

        cfg = ServiceConfig(
            cores=2,
            backend="process",
            breaker_threshold=1,
            breaker_open_s=0.0,
            fault_plan_factory=factory,
        )
        with FactorizationService(cfg) as svc:
            svc.breaker.record("primary", ok=False, kind="worker_death")
            assert svc.breaker.state == "open"
            with pytest.raises(OSError):  # the half-open probe, lost to an OSError
                svc.solve(A, rhs)
            assert svc.breaker.state == "half_open"
            # No verdict on the pool, so the next request probes again.
            for _ in range(3):
                assert np.array_equal(svc.solve(A, rhs), ref)
            assert svc.breaker.state == "closed"


class TestDrain:
    def test_close_is_idempotent_and_rejects_new_work(self):
        rng = make_rng(14)
        A, rhs = make_problem(rng, n=48)
        svc = FactorizationService(ServiceConfig(cores=2, backend="threaded"))
        assert np.array_equal(svc.solve(A, rhs), linalg_solve(A, rhs, cores=2))
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(AdmissionRejected):
            svc.solve(A, rhs)

    def test_close_waits_for_inflight(self):
        rng = make_rng(15)
        A, rhs = make_problem(rng, n=64)
        plan = dict(stall_rate={"getf2_panel": 1.0}, stall_s=0.2)
        cfg = ServiceConfig(
            cores=2,
            backend="threaded",
            fault_plan_factory=lambda: FaultPlan(seed=0, **plan),
        )
        svc = FactorizationService(cfg)
        done = []
        t = threading.Thread(target=lambda: done.append(svc.solve(A, rhs)))
        t.start()
        time.sleep(0.05)
        svc.close()
        t.join(timeout=120)
        assert len(done) == 1 and done[0] is not None


class TestLinalgEntry:
    """``linalg.solve``/``lstsq`` take no ``service=``: a caller holding
    the service calls its ``solve``/``lstsq``, deadline keyword and all,
    and gets the direct call's answer for the same cores, bit for bit."""

    def test_solve_via_service_kwarg(self):
        rng = make_rng(16)
        A, rhs = make_problem(rng)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x = svc.solve(A, rhs, deadline_s=60.0)
        assert np.array_equal(x, linalg_solve(A, rhs, cores=2))

    def test_lstsq_via_service_kwarg(self):
        rng = make_rng(17)
        A = rng.standard_normal((96, 32))
        rhs = rng.standard_normal(96)
        with FactorizationService(ServiceConfig(cores=2, backend="threaded")) as svc:
            x = svc.lstsq(A, rhs, deadline_s=60.0)
        assert np.array_equal(x, linalg_lstsq(A, rhs, cores=2))


class TestExports:
    def test_top_level_exports(self):
        import repro

        for name in (
            "FactorizationService",
            "ServiceConfig",
            "AdmissionRejected",
            "DeadlineExceeded",
            "CircuitBreaker",
        ):
            assert hasattr(repro, name), name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(cores=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_active=0)
        with pytest.raises(ValueError):
            ServiceConfig(backend="gpu")
