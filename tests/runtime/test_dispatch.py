"""The process backend's dispatcher: batched messages, per-task acks.

One dispatcher loop deals ready tasks to the pool's workers, several per
message, and gets one reply with one ack per task.  Everything the
engine promises per *task* must survive that batching:

* a failure in the middle of a message retries only the failed task and
  re-deals the ones the worker never started — nothing runs twice,
  nothing is dropped (asserted bitwise: S updates are not idempotent);
* ``kill -9`` of a worker fails every task it had in flight with a
  structured ``worker_death``, the pool respawns (or the governor
  throttles) and no stale ack reaches the next run;
* a checkpointed run that dies with messages out resumes bitwise;
* engines sharing a pool each get their own acks (ticket demux);
* counters agree with the threaded run when counting is on, and the
  worker installs none when it is off;
* the thread path neither changed behaviour nor learnt about pipes.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import counters as counters_mod
from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.trees import TreeKind
from repro.counters import counting
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime import engine as engine_mod
from repro.runtime import ops, sync
from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor, _WorkerPool
from repro.runtime.shm import SharedArena, attach_array
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from repro.service.supervisor import RespawnGovernor
from tests.conftest import assert_lock_sanity, make_rng

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="test ops are registered in-process and reach workers via fork",
)


# ----------------------------------------------------------------------
# Test-only ops: registered in the parent, inherited by forked workers.
# ----------------------------------------------------------------------


def _op_tally(p):
    """Count the call in ``ran[slot]``; the first call may fail before
    doing anything, later ones run ``inner`` (if any), then sleep."""
    ran = attach_array(p["ran"])
    ran[p["slot"]] += 1
    if p.get("fail_first") and ran[p["slot"]] == 1:
        raise InjectedFault(f"flaky slot {p['slot']}", pre_execution=True)
    if p.get("inner") is not None:
        ops.run_op(p["inner"])
    if p.get("sleep"):
        time.sleep(p["sleep"])


def _op_accumulate(p):
    """``out[slot] += value``: not idempotent, like an S update."""
    attach_array(p["out"])[p["slot"]] += p["value"]


def _op_counting_probe(p):
    attach_array(p["out"])[0] = 1.0 if counters_mod.current_counters() is not None else -1.0


@pytest.fixture(autouse=True)
def _test_ops():
    extra = {
        "test_tally": _op_tally,
        "test_accumulate": _op_accumulate,
        "test_counting_probe": _op_counting_probe,
    }
    ops.OPS.update(extra)
    yield
    for name in extra:
        ops.OPS.pop(name, None)


@pytest.fixture
def arena():
    a = SharedArena()
    yield a
    a.destroy()


def _tally(arena, ran, slot, **kw):
    return ("test_tally", {"ran": arena.spec(ran), "slot": slot, **kw})


def _independent(name, descriptors, **task_kw):
    g = TaskGraph(name)
    for i, op in enumerate(descriptors):
        g.add(f"t{i}", TaskKind.S, Cost("gemm", flops=1e3), op=op, **task_kw)
    return g


def _pool_is_quiet(pool):
    return not any(pool._pending) and not any(pool._replies)


class _Sabotage(ProcessExecutor):
    """A pool whose picked tasks' ops fail once inside the worker."""

    def __init__(self, n_workers, arena, pick, **kw):
        super().__init__(n_workers, **kw)
        self.arena, self.pick, self.ran = arena, pick, None

    def run(self, graph, journal=None):
        victims = [t for t in graph.tasks if t.meta.get("op") and self.pick(t)]
        self.ran = self.arena.alloc(len(victims))
        for slot, t in enumerate(victims):
            t.meta["op"] = _tally(self.arena, self.ran, slot, inner=t.meta["op"], fail_first=True)
        return super().run(graph, journal=journal)


# ----------------------------------------------------------------------
# (a) a failure in the middle of a message
# ----------------------------------------------------------------------


class TestMidMessageFailure:
    def test_failed_task_retries_unstarted_task_is_redealt(self, arena):
        ran = arena.alloc(3)
        out = arena.alloc(3)
        acc = lambda i: ("test_accumulate", {"out": arena.spec(out), "slot": i, "value": i + 0.5})
        g = _independent(
            "mid-failure",
            [_tally(arena, ran, i, inner=acc(i), fail_first=(i == 1)) for i in range(3)],
        )
        # One worker: the three ready tasks are dealt to it in one message.
        with ProcessExecutor(1, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)) as ex:
            trace = ex.run(g)
            assert _pool_is_quiet(ex.pool)
        # First message [t0, t1, t2]: t0 ran, t1 failed, t2 never started.
        # Second message [t1 (retry), t2 (re-dealt)].
        assert trace.stats["messages"] == 2
        assert trace.resilience_summary() == {"retry": 1}
        assert list(ran) == [1, 2, 1]  # t2 was not touched by the failed message
        assert list(out) == [0.5, 1.5, 2.5]  # every accumulate applied exactly once
        assert sorted(r.name for r in trace.records) == ["t0", "t1", "t2"]

    def test_exhausted_retries_fail_structured_and_name_the_task(self, arena):
        ran = arena.alloc(3)
        g = _independent(
            "mid-fatal", [_tally(arena, ran, 0), ("no_such_op", {}), _tally(arena, ran, 2)]
        )
        with ProcessExecutor(1) as ex:
            with pytest.raises(RuntimeFailure) as info:
                ex.run(g)
            assert _pool_is_quiet(ex.pool)
        assert info.value.failure_kind == "task_error" and info.value.task == "t1"
        assert [r.name for r in info.value.trace.records] == ["t0"]
        assert list(ran) == [1, 0, 0]  # the message stopped at the failure

    def test_calu_factors_bitwise_under_worker_side_faults(self, arena):
        A = make_rng(70).standard_normal((96, 96))
        ref = calu(A, b=12, tr=2, executor=ThreadedExecutor(2))
        # Every third trailing update fails once inside the worker.  U and S
        # tasks are not idempotent: a second run would swap the rows back
        # and subtract the product twice.
        seen = iter(range(10**6))
        pick = lambda t: t.kind in (TaskKind.U, TaskKind.S) and next(seen) % 3 == 1
        retry = RetryPolicy(max_retries=2, backoff_s=1e-4)
        with _Sabotage(2, arena, pick, retry=retry) as sab:
            f = calu(A, b=12, tr=2, executor=sab)
        assert len(sab.ran) > 5
        assert np.all(sab.ran == 2)  # failed once, ran once
        assert f.trace.resilience_summary().get("retry") == len(sab.ran)
        np.testing.assert_array_equal(f.piv, ref.piv)
        np.testing.assert_array_equal(f.lu, ref.lu)


# ----------------------------------------------------------------------
# (b) kill -9 with a message in flight
# ----------------------------------------------------------------------


def _kill_when_running(ex, ran, core=0):
    """SIGKILL worker *core* once its first op has started; returns the thread."""

    def killer():
        deadline = time.monotonic() + 10
        while ran.sum() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        os.kill(ex.pool._procs[core].pid, 9)

    th = threading.Thread(target=killer)
    th.start()
    return th


class TestWorkerDeathInFlight:
    def test_every_in_flight_task_surfaces_worker_death_then_recovers(self, arena):
        ran = arena.alloc(4)
        g = _independent(
            "kill", [_tally(arena, ran, i, sleep=0.2) for i in range(4)], idempotent=True
        )
        with ProcessExecutor(1, retry=RetryPolicy(max_retries=1, backoff_s=1e-4)) as ex:
            ex.pool._ensure(0)
            killer = _kill_when_running(ex, ran)
            trace = ex.run(g)
            killer.join(15)
            assert not killer.is_alive()
            retries = [ev for ev in trace.events if ev.kind == "retry"]
            assert sorted(ev.task for ev in retries) == ["t0", "t1", "t2", "t3"]
            assert all("worker process 0 died" in ev.detail for ev in retries)
            assert ex.pool.deaths == 1 and ex.pool.respawns == 1
            assert _pool_is_quiet(ex.pool)
            # t0 was started twice (killed mid-sleep); the rest only after the respawn.
            assert list(ran) == [2, 1, 1, 1]
            # The next run talks to the respawned worker and sees only its own acks.
            again = ex.run(_independent("after", [_tally(arena, ran, i) for i in range(4)]))
            assert len(again.records) == 4 and not again.events
            assert list(ran) == [3, 2, 2, 2]

    def test_without_retry_the_run_fails_structured(self, arena):
        ran = arena.alloc(3)
        g = _independent("kill-fatal", [_tally(arena, ran, i, sleep=0.2) for i in range(3)])
        with ProcessExecutor(1) as ex:
            ex.pool._ensure(0)
            killer = _kill_when_running(ex, ran)
            with pytest.raises(RuntimeFailure) as info:
                ex.run(g)
            killer.join(15)
            assert not killer.is_alive()
            assert info.value.failure_kind == "worker_death"
            assert "test_tally" in str(info.value) and "exitcode=-9" in str(info.value)
            assert info.value.trace.records == []
            assert _pool_is_quiet(ex.pool)
            assert ex.pool.worker_alive(0) is True  # respawned for the next run

    def test_governor_throttles_the_respawn(self, arena):
        ran = arena.alloc(2)
        governor = RespawnGovernor(max_respawns=1, window_s=60.0)
        governor.allow_respawn(99)  # burn the budget
        g = _independent(
            "kill-throttled", [_tally(arena, ran, i, sleep=0.2) for i in range(2)], idempotent=True
        )
        retry = RetryPolicy(max_retries=1, backoff_s=1e-4)
        with ProcessExecutor(1, retry=retry, respawn_governor=governor) as ex:
            ex.pool._ensure(0)
            killer = _kill_when_running(ex, ran)
            with pytest.raises(RuntimeFailure) as info:
                ex.run(g)
            killer.join(15)
            assert not killer.is_alive()
            assert info.value.failure_kind == "worker_death"
            assert "respawn throttled" in str(info.value)
            assert ex.pool.worker_alive(0) is False  # stayed down
            assert ex.pool.respawns == 0 and _pool_is_quiet(ex.pool)

    def test_pool_level_death_fails_each_pending_ticket(self, arena):
        ran = arena.alloc(2)
        pool = _WorkerPool(1)
        try:
            first = pool.submit(0, [_tally(arena, ran, 0, sleep=0.3)])
            second = pool.submit(0, [_tally(arena, ran, 1)])
            while ran[0] == 0:
                time.sleep(0.005)
            os.kill(pool._procs[0].pid, 9)
            for ticket in (first, second):
                with pytest.raises(RuntimeFailure) as info:
                    pool.collect(0, ticket)
                assert info.value.failure_kind == "worker_death"
            assert _pool_is_quiet(pool)
            pool.run(0, _tally(arena, ran, 1))  # the respawned worker serves
            assert ran[1] == 1
        finally:
            pool.close()


# ----------------------------------------------------------------------
# (c) checkpoint resume after a crash with messages out
# ----------------------------------------------------------------------


class TestJournalResume:
    def test_calu_checkpoint_resume_bitwise_after_mid_reply_crash(self):
        A = make_rng(71).standard_normal((64, 64))
        clean = calu(A, b=8, tr=2, checkpoint=Checkpoint())  # the crash run's task ids
        # One S task of iteration 3 draws a fault and nothing retries it:
        # the run dies past three boundaries, with other tasks in flight.
        crash = FaultPlan(23, raise_rate={"S": 0.05})
        drawn = [r.name for r in clean.trace.records if crash.decide(r).get("raise")]
        assert drawn == ["S[3]1,4"]
        ckpt = Checkpoint()
        with ProcessExecutor(2, fault_plan=crash) as ex:
            with pytest.raises(RuntimeFailure, match="S\\[3\\]1,4") as info:
                calu(A, b=8, tr=2, executor=ex, checkpoint=ckpt)
            assert info.value.failure_kind == "injected"
            assert ckpt.snapshot_chain()  # what the crash left to resume from
            ex.fault_plan = None  # the restart
            f = calu(A, b=8, tr=2, executor=ex, checkpoint=ckpt)
        assert f.trace.resilience_summary().get("resume") == 1
        np.testing.assert_array_equal(f.lu, clean.lu)
        np.testing.assert_array_equal(f.piv, clean.piv)


# ----------------------------------------------------------------------
# (d) engines sharing a pool get their own acks
# ----------------------------------------------------------------------


class TestSharedPool:
    def test_calu_on_an_engine_over_a_pool_runs_in_its_workers(self):
        # The engine form the service builds: the plan must be staged on
        # the shared plane, or every task runs inline in the dispatcher.
        A = make_rng(73).standard_normal((256, 64))
        with ProcessExecutor(2) as ex:
            ref = calu(A, b=16, tr=2, executor=ex)
            f = calu(A, b=16, tr=2, executor=ExecutionEngine(2, process_pool=ex.pool))
        assert f.trace.stats["messages"] > 0
        np.testing.assert_array_equal(f.lu, ref.lu)
        np.testing.assert_array_equal(f.piv, ref.piv)

    def test_six_threads_on_one_pool_under_the_lock_sanitizer(self, arena):
        n_threads, n_runs, n_tasks = 6, 3, 12
        out = arena.alloc((n_threads, n_tasks))
        failures = []

        def graph(t):
            # A chain threaded through fans: acks must come back to the
            # right engine for the next task to be released at all.
            g = TaskGraph(f"shared-{t}")
            for i in range(n_tasks):
                g.add(
                    f"t{i}",
                    TaskKind.S,
                    Cost("gemm", flops=1e3),
                    op=(
                        "test_accumulate",
                        {"out": arena.spec(out[t]), "slot": i, "value": float(t + 1)},
                    ),
                    deps=[i - 1] if i % 4 == 0 and i else [],
                )
            return g

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-drain, mid-deal
        with sync.witnessing() as witness:
            pool = _WorkerPool(2)
            try:

                def client(t):
                    try:
                        for _ in range(n_runs):
                            engine = ExecutionEngine(
                                n_workers=2,
                                stall_timeout=60.0,
                                process_pool=pool,
                            )
                            trace = engine.run(graph(t))
                            assert len(trace.records) == n_tasks
                            assert trace.stats["messages"] <= n_tasks
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        failures.append(exc)

                threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(120)
                assert not failures, failures
                assert not any(th.is_alive() for th in threads)
                assert _pool_is_quiet(pool)
            finally:
                sys.setswitchinterval(interval)
                pool.close()
        expect = np.outer(np.arange(1, n_threads + 1), np.ones(n_tasks)) * n_runs
        np.testing.assert_array_equal(out, expect)
        # No lock is held across a round-trip any more: nothing is allowed.
        assert_lock_sanity(witness)
        assert "process.core" in witness.acquired and not witness.roundtrip_held

    def test_a_foreign_reply_is_filed_and_its_owner_woken(self, arena):
        ran = arena.alloc(2)
        woken = []
        pool = _WorkerPool(1)
        try:
            mine = pool.submit(0, [_tally(arena, ran, 0)], wake=lambda: woken.append("mine"))
            theirs = pool.submit(0, [_tally(arena, ran, 1)], wake=lambda: woken.append("theirs"))
            # Collecting the *second* message drains the first one's reply too.
            assert pool.collect(0, theirs)[0][0] is True
            assert woken == ["mine"]  # the collector itself is not woken
            assert pool.collect(0, mine, block=False)[0][0] is True
            with pytest.raises(KeyError):
                pool.collect(0, mine)
        finally:
            pool.close()

    def test_abandoned_reply_is_dropped(self, arena):
        ran = arena.alloc(2)
        pool = _WorkerPool(1)
        try:
            stale = pool.submit(0, [_tally(arena, ran, 0, sleep=0.05)])
            pool.abandon(0, stale)
            pool.run(0, _tally(arena, ran, 1))  # reads past the stale reply
            assert list(ran) == [1, 1] and _pool_is_quiet(pool)
        finally:
            pool.close()


# ----------------------------------------------------------------------
# (e) counters parity, worker-measured spans
# ----------------------------------------------------------------------


class TestCountersAndSpans:
    @pytest.mark.parametrize("driver", [calu, caqr], ids=["calu", "caqr"])
    def test_flops_and_kernel_calls_match_threaded(self, driver):
        A = make_rng(72).standard_normal((96, 48))
        with counting() as threaded:
            driver(A, b=12, tr=4, tree=TreeKind.BINARY, executor=ThreadedExecutor(2))
        with ProcessExecutor(2) as ex:
            with counting() as process:
                f = driver(A, b=12, tr=4, tree=TreeKind.BINARY, executor=ex)
        assert process.flops == threaded.flops > 0
        assert process.kernel_calls == threaded.kernel_calls
        assert process.comparisons == threaded.comparisons
        assert process.roundtrips == f.trace.stats["messages"] < f.trace.stats["n_tasks"]

    def test_worker_installs_no_counter_unless_the_parent_counts(self, arena):
        out = arena.alloc(1)
        g = lambda: _independent("probe", [("test_counting_probe", {"out": arena.spec(out)})])
        with ProcessExecutor(1) as ex:
            ex.run(g())
            assert out[0] == -1.0
            with counting():
                ex.run(g())
            assert out[0] == 1.0
            ex.run(g())
            assert out[0] == -1.0

    def test_records_carry_the_workers_own_spans(self, arena):
        ran = arena.alloc(4)
        g = _independent("spans", [_tally(arena, ran, i, sleep=0.02) for i in range(4)])
        with ProcessExecutor(1) as ex:
            ex.run(_independent("warm", [_tally(arena, ran, 0)]))
            t0 = time.perf_counter()
            trace = ex.run(g)
            wall = time.perf_counter() - t0
        recs = sorted(trace.records, key=lambda r: r.start)
        # One worker ran the four sleeps back to back: spans tile the run
        # without overlap, although all four travelled in one message.
        assert trace.stats["messages"] == 1
        for a, b in zip(recs, recs[1:]):
            assert a.end <= b.start
        # (No upper bound on a span or on dispatch: a shared host can
        # stretch either; the sleeps are a floor.)
        assert all(r.duration >= 0.02 for r in recs)
        assert 0.0 <= recs[0].start and recs[-1].end <= wall
        assert 0.0 <= trace.stats["dispatch_seconds"] <= wall


class TestTaskTimeoutInTheQueue:
    """``task_timeout`` bounds a task, not its wait behind the others in
    its worker's pipe (ROADMAP 6b)."""

    def test_queued_tasks_are_not_timed_out_while_they_wait(self, arena):
        ran = arena.alloc(4)
        g = _independent("queued", [_tally(arena, ran, i, sleep=0.3) for i in range(4)])
        with ProcessExecutor(1, task_timeout=0.5) as ex:
            # All four travel in one message acked ~1.2 s after the
            # deal; none runs longer than 0.3 s.  Used to fail with
            # "task 't0' stalled: ran longer than 0.5s on worker 0".
            trace = ex.run(g)
        assert trace.stats["messages"] == 1 and list(ran) == [1, 1, 1, 1]
        assert all(0.3 <= r.duration < 0.5 for r in trace.records)
        assert not [e for e in trace.events if e.kind == "timeout"]

    def test_a_stuck_task_still_trips_within_the_in_flight_allowance(self, arena):
        ran = arena.alloc(4)
        ops = [_tally(arena, ran, 0, sleep=2.0)] + [_tally(arena, ran, i) for i in range(1, 4)]
        timeout, poll = 0.2, 0.02
        with ProcessExecutor(1, task_timeout=timeout, watchdog_poll_s=poll) as ex:
            t0 = time.monotonic()
            with pytest.raises(RuntimeFailure) as info:
                ex.run(_independent("stuck", ops))
            took = time.monotonic() - t0
        assert info.value.failure_kind == "timeout"
        # One allowance per task in flight on the worker, plus one poll
        # (and scheduling slack) — and not before a single timeout.
        assert timeout < took < engine_mod._MAX_INFLIGHT * timeout + poll + 0.5

    def test_a_task_alone_on_its_worker_gets_one_timeout(self, arena):
        ran = arena.alloc(1)
        with ProcessExecutor(1, task_timeout=0.2, watchdog_poll_s=0.02) as ex:
            t0 = time.monotonic()
            with pytest.raises(RuntimeFailure, match="t0") as info:
                ex.run(_independent("alone", [_tally(arena, ran, 0, sleep=2.0)]))
            assert time.monotonic() - t0 < 0.2 + 0.02 + 0.3
        assert info.value.failure_kind == "timeout"


# ----------------------------------------------------------------------
# (f) the thread path is untouched
# ----------------------------------------------------------------------


class TestThreadPathUnchanged:
    @pytest.mark.parametrize(
        "make", [lambda: ThreadedExecutor(3), lambda: WorkStealingExecutor(3)],
        ids=["threaded", "stealing"],
    )
    def test_no_pipes_no_polls_no_dispatch_account(self, make, monkeypatch):
        def forbidden(*a, **k):
            raise AssertionError("the thread path must not touch pipes or polls")

        monkeypatch.setattr(engine_mod.os, "pipe", forbidden)
        monkeypatch.setattr(engine_mod.select, "poll", forbidden)
        names = set()
        g = TaskGraph("threads")
        for i in range(32):
            g.add(
                f"t{i}",
                TaskKind.S,
                Cost("gemm", flops=1e3),
                fn=lambda: names.add(threading.current_thread().name),
                deps=[i - 1] if i % 5 == 0 and i else [],
            )
        trace = make().run(g)
        trace.validate_schedule(g)
        assert len(trace.records) == 32
        assert "messages" not in trace.stats and "dispatch_seconds" not in trace.stats
        assert names and all(n.startswith("repro-") and n[-1].isdigit() for n in names)

    def test_in_flight_cap_is_a_module_constant(self):
        import inspect

        assert engine_mod._MAX_INFLIGHT == 4
        assert "_MAX_INFLIGHT" not in inspect.signature(ExecutionEngine.__init__).parameters
        assert "REPRO_" not in inspect.getsource(engine_mod._RealClockRun)

    def test_serial_dispatch_cost_stays_small(self):
        # The serial path is ``lapack.serial_ratio``'s numerator: a
        # dependency-free no-op graph must stay far below a kernel's cost.
        def graph():
            g = TaskGraph("noop")
            for i in range(1024):
                g.add(f"n{i}", TaskKind.X, Cost("noop"), fn=_noop)
            return g

        ex = ThreadedExecutor(1)
        ex.run(graph())
        best = float("inf")
        for _ in range(5):
            g = graph()
            t0 = time.perf_counter()
            ex.run(g)
            best = min(best, time.perf_counter() - t0)
        assert best / 1024 < 50e-6, f"{best / 1024 * 1e6:.1f} us per task"


def _noop():
    pass
