"""Tests for the threaded and simulated executors, and the conformance
matrix every real-clock executor (the engine and its subclasses) meets."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ALGORITHMS, compile
from repro.core.trees import TreeKind
from repro.counters import counting
from repro.machine.presets import generic
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.task import Cost, Task, TaskKind
from repro.runtime.threaded import ThreadedExecutor


def _mk(flops=1e6, kernel="gemm"):
    return Cost(kernel, 100, 100, 100, flops=flops)


def random_graph(seed: int, n_tasks: int) -> tuple[TaskGraph, list, list]:
    """A random DAG whose tasks append their id to a shared log."""
    rng = np.random.default_rng(seed)
    g = TaskGraph(f"rand{seed}")
    log: list[int] = []
    deps_record = []

    def mk(i):
        def fn():
            log.append(i)

        return fn

    for i in range(n_tasks):
        k = int(rng.integers(0, min(i, 3) + 1))
        deps = sorted(rng.choice(i, size=k, replace=False).tolist()) if i and k else []
        deps_record.append(deps)
        g.add(f"t{i}", TaskKind.S, _mk(), fn=mk(i), deps=deps)
    return g, log, deps_record


class TestReadyQueue:
    def test_priority_order(self):
        q = ReadyQueue("priority")
        for i, p in enumerate([1.0, 5.0, 3.0]):
            q.push(Task(tid=i, name=str(i), kind=TaskKind.S, cost=_mk(), priority=p))
        assert [q.pop().tid for _ in range(3)] == [1, 2, 0]

    def test_fifo_ignores_priority(self):
        q = ReadyQueue("fifo")
        for i, p in enumerate([1.0, 5.0, 3.0]):
            q.push(Task(tid=i, name=str(i), kind=TaskKind.S, cost=_mk(), priority=p))
        assert [q.pop().tid for _ in range(3)] == [0, 1, 2]

    def test_stable_ties(self):
        q = ReadyQueue("priority")
        for i in range(5):
            q.push(Task(tid=i, name=str(i), kind=TaskKind.S, cost=_mk(), priority=2.0))
        assert [q.pop().tid for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ReadyQueue("bogus")

    def test_len_and_bool(self):
        q = ReadyQueue()
        assert not q and len(q) == 0
        q.push(Task(tid=0, name="x", kind=TaskKind.S, cost=_mk()))
        assert q and len(q) == 1


class TestThreadedExecutor:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_executes_all_respecting_deps(self, workers, seed):
        g, log, deps = random_graph(seed, 40)
        ThreadedExecutor(workers).run(g)
        assert sorted(log) == list(range(40))
        pos = {t: i for i, t in enumerate(log)}
        for t, dd in enumerate(deps):
            for d in dd:
                assert pos[d] < pos[t]

    def test_trace_complete(self):
        g, _, _ = random_graph(3, 25)
        trace = ThreadedExecutor(2).run(g)
        assert len(trace.records) == 25
        trace.validate_schedule(g)

    def test_exception_propagates(self):
        g = TaskGraph()

        def boom():
            raise RuntimeError("task failed")

        g.add("boom", TaskKind.P, _mk(), fn=boom)
        g.add("after", TaskKind.S, _mk(), fn=lambda: None, deps=[0])
        with pytest.raises(RuntimeError, match="task failed"):
            ThreadedExecutor(2).run(g)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)

    def test_empty_graph(self):
        trace = ThreadedExecutor(2).run(TaskGraph())
        assert trace.records == []

    def test_symbolic_tasks_allowed(self):
        g = TaskGraph()
        g.add("sym", TaskKind.P, _mk())  # fn=None
        trace = ThreadedExecutor(1).run(g)
        assert len(trace.records) == 1


class TestSimulatedExecutor:
    def test_schedule_valid_and_deterministic(self):
        mach = generic(4)
        g, _, _ = random_graph(5, 60)
        t1 = SimulatedExecutor(mach).run(g)
        g2, _, _ = random_graph(5, 60)
        t2 = SimulatedExecutor(mach).run(g2)
        t1.validate_schedule(g)
        assert t1.makespan == t2.makespan
        assert [(r.tid, r.core, r.start) for r in t1.records] == [
            (r.tid, r.core, r.start) for r in t2.records
        ]

    def test_execute_flag_runs_numerics(self):
        mach = generic(2)
        g, log, deps = random_graph(7, 30)
        SimulatedExecutor(mach, execute=True).run(g)
        assert sorted(log) == list(range(30))
        pos = {t: i for i, t in enumerate(log)}
        for t, dd in enumerate(deps):
            for d in dd:
                assert pos[d] < pos[t]

    def test_without_execute_numerics_skipped(self):
        mach = generic(2)
        g, log, _ = random_graph(8, 10)
        SimulatedExecutor(mach, execute=False).run(g)
        assert log == []

    def test_parallel_speedup(self):
        """Independent equal tasks on c cores finish ~c times faster."""
        def build(n):
            g = TaskGraph()
            for i in range(n):
                g.add(f"t{i}", TaskKind.S, _mk(1e8))
            return g

        t1 = SimulatedExecutor(generic(1)).run(build(8))
        t4 = SimulatedExecutor(generic(4)).run(build(8))
        assert t1.makespan / t4.makespan == pytest.approx(4.0, rel=0.05)

    def test_chain_not_parallelizable(self):
        g = TaskGraph()
        prev = None
        for i in range(6):
            prev = g.add(f"t{i}", TaskKind.S, _mk(1e8), deps=[prev] if prev is not None else [])
        t1 = SimulatedExecutor(generic(1)).run(g)
        g2 = TaskGraph()
        prev = None
        for i in range(6):
            prev = g2.add(f"t{i}", TaskKind.S, _mk(1e8), deps=[prev] if prev is not None else [])
        t4 = SimulatedExecutor(generic(4)).run(g2)
        # Sync latency makes the multicore chain marginally *slower*.
        assert t4.makespan >= t1.makespan * 0.99

    def test_priority_policy_prefers_high_priority(self):
        mach = generic(1)
        g = TaskGraph()
        g.add("low", TaskKind.S, _mk(), priority=0.0)
        g.add("high", TaskKind.P, _mk(), priority=10.0)
        trace = SimulatedExecutor(mach).run(g)
        order = [r.name for r in sorted(trace.records, key=lambda r: r.start)]
        assert order == ["high", "low"]

    def test_fifo_policy(self):
        mach = generic(1)
        g = TaskGraph()
        g.add("low", TaskKind.S, _mk(), priority=0.0)
        g.add("high", TaskKind.P, _mk(), priority=10.0)
        trace = SimulatedExecutor(mach, policy="fifo").run(g)
        order = [r.name for r in sorted(trace.records, key=lambda r: r.start)]
        assert order == ["low", "high"]

    def test_zero_cost_tasks_complete(self):
        g = TaskGraph()
        g.add("empty", TaskKind.X, Cost("copy"))
        trace = SimulatedExecutor(generic(2)).run(g)
        assert len(trace.records) == 1

    def test_memory_bound_contention(self):
        """Two concurrent memory-bound tasks share aggregate bandwidth."""
        mach = generic(4, mem_bw_gbs=4.0, core_bw_gbs=4.0, task_overhead_us=0.0)

        def build(n):
            g = TaskGraph()
            for i in range(n):
                g.add(f"t{i}", TaskKind.P, Cost("getf2", 100000, 64, flops=1e8))
            return g

        t_one = SimulatedExecutor(mach).run(build(1))
        t_four = SimulatedExecutor(mach).run(build(4))
        # With bw shared, 4 tasks take ~4x the single-task time, not 1x.
        ratio = t_four.makespan / t_one.makespan
        assert ratio > 2.0

    def test_sync_counted_for_remote_deps(self):
        mach = generic(4)
        g = TaskGraph()
        a = g.add("a", TaskKind.P, _mk())
        b = g.add("b", TaskKind.P, _mk())
        g.add("c", TaskKind.S, _mk(), deps=[a, b])
        with counting() as c:
            SimulatedExecutor(mach).run(g)
        assert c.syncs >= 1


def _mk_words(words):
    return Cost("laswp", words=words)


@given(st.integers(0, 100), st.integers(1, 8), st.integers(5, 40))
@settings(max_examples=25, deadline=None)
def test_property_simulated_schedule_always_valid(seed, cores, n_tasks):
    mach = generic(cores)
    g, _, _ = random_graph(seed, n_tasks)
    trace = SimulatedExecutor(mach).run(g)
    trace.validate_schedule(g)
    assert len(trace.records) == n_tasks
    assert trace.makespan > 0.0


# ---------------------------------------------------------------------------
# One conformance matrix: the engine, under each of its public names
# ---------------------------------------------------------------------------

ENGINES = [ExecutionEngine, ThreadedExecutor, WorkStealingExecutor, ProcessExecutor]


@pytest.fixture(params=ENGINES, ids=["engine", "threaded", "stealing", "process"])
def make(request):
    """``make(n_workers, **options)`` builds the parametrized executor;
    every one made is closed (a ProcessExecutor owns a pool)."""
    made = []

    def factory(*args, **options):
        made.append(request.param(*args, **options))
        return made[-1]

    factory.cls = request.param
    yield factory
    for ex in made:
        getattr(ex, "close", lambda: None)()


def chain(n, fn=lambda: None):
    g = TaskGraph("chain")
    for i in range(n):
        g.add(f"t{i}", TaskKind.S, _mk(), fn=fn, deps=[i - 1] if i else [])
    return g


class TestEngineConformance:
    def test_every_executor_is_the_engine(self):
        assert ThreadedExecutor is ExecutionEngine
        assert issubclass(WorkStealingExecutor, ExecutionEngine)
        assert issubclass(ProcessExecutor, ExecutionEngine)

    @pytest.mark.parametrize(
        "args, options, named",
        [
            ((0,), {}, "n_workers"),
            ((2,), {"task_timeout": -1}, "task_timeout"),
            ((2,), {"stall_timeout": -0.5}, "stall_timeout"),
            ((2,), {"watchdog_poll_s": -0.01}, "watchdog_poll_s"),
        ],
    )
    def test_options_are_validated_at_construction(self, make, args, options, named):
        with pytest.raises(ValueError, match=named):
            make(*args, **options)

    def test_unknown_policy_is_rejected_at_construction(self, make):
        if make.cls is WorkStealingExecutor:
            with pytest.raises(TypeError, match="policy"):  # it has no queue policy
                make(2, policy="fifo")
        else:
            with pytest.raises(ValueError, match="bogus"):
                make(2, policy="bogus")
            with pytest.raises(ValueError, match="bogus"):
                make(2, "bogus")

    def test_deadline_aborts_with_its_own_kind(self, make):
        ex = make(2, deadline=time.monotonic() + 0.05, watchdog_poll_s=0.01)
        t0 = time.monotonic()
        with pytest.raises(RuntimeFailure) as info:
            ex.run(chain(10, lambda: time.sleep(0.1)))
        assert info.value.failure_kind == "deadline"
        assert "tasks done" in str(info.value)
        assert time.monotonic() - t0 < 0.6  # nowhere near the chain's 1 s
        assert info.value.trace is not None

    def test_journaled_prefix_yields_one_resume_event(self, make):
        ran = []
        g = chain(6, lambda: ran.append(1))
        trace = make(2).run(g, journal={"t0", "t1", "t2"})
        assert [e.kind for e in trace.events] == ["resume"]
        assert trace.events[0].value == 3.0
        assert sorted(r.name for r in trace.records) == ["t3", "t4", "t5"]
        assert len(ran) == 3 and trace.stats["skipped"] == 3

    def test_fault_plan_and_retry_yield_the_same_event_kinds(self, make):
        ran = []
        ex = make(
            1,
            fault_plan=FaultPlan(3, raise_rate=1.0, max_faults=2),
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        trace = ex.run(chain(4, lambda: ran.append(1)))
        # Transient faults fire on attempt 0 only: each is retried once.
        assert [e.kind for e in trace.events] == ["fault_raise", "retry"] * 2
        assert len(ran) == 4 and len(trace.records) == 4

    def test_streamed_and_materialized_programs_give_equal_factors(self, make):
        ex = make(2)
        A = np.random.default_rng(17).standard_normal((64, 48))
        knobs = dict(b=8, tr=2, tree=TreeKind.BINARY, leaf_kernel="rgetf2")
        knobs["shared"] = isinstance(ex, ProcessExecutor)
        streamed, eager = compile(ALGORITHMS["lu"], A, **knobs), compile(ALGORITHMS["lu"], A, **knobs)
        try:
            trace = streamed.run(ex)
            assert trace.stats["windows_emitted"] == trace.stats["n_windows"] > 1
            assert trace.stats["peak_live_tasks"] < trace.stats["n_tasks"]
            graph = eager.program.materialize()
            trace_eager = ex.run(graph)
            assert trace_eager.stats["peak_live_tasks"] == len(graph.tasks)
            f, g = streamed.result(trace), eager.result(trace_eager)
            assert np.array_equal(f.lu, g.lu) and np.array_equal(f.piv, g.piv)
            assert np.allclose(f.reconstruct(), A)
        finally:
            streamed.close()
            eager.close()

    def test_one_instance_runs_concurrently_with_independent_traces(self, make):
        ex = make(2, stall_timeout=30.0)
        traces, failures = {}, []

        def client(k):
            try:
                g, log, _ = random_graph(k, 30 + 10 * k)
                traces[k] = (ex.run(g), g, log)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
        assert not failures, failures
        for k, (trace, g, log) in traces.items():
            # Each run has its own frontier and books: a complete,
            # valid schedule of its own graph and nothing of the other's.
            assert sorted(log) == list(range(30 + 10 * k))
            assert sorted(r.tid for r in trace.records) == list(range(30 + 10 * k))
            trace.validate_schedule(g)
            assert trace.stats["n_tasks"] == 30 + 10 * k
