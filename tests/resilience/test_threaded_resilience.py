"""Resilience behaviour of the threaded executor: retries, watchdog, guards."""

import threading
import time

import numpy as np
import pytest

from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor


def chain_graph(fns, idempotent=False):
    """t0 -> t1 -> ... with the given closures."""
    g = TaskGraph("chain")
    prev = None
    for i, fn in enumerate(fns):
        prev = g.add(
            f"t{i}",
            TaskKind.S,
            Cost("gemm", 4, 4, 4, flops=100.0),
            fn=fn,
            deps=[] if prev is None else [prev],
            idempotent=idempotent,
        )
    return g


class Flaky:
    """Raises on the first *n_failures* calls, then succeeds."""

    def __init__(self, n_failures: int = 1):
        self.calls = 0
        self.n_failures = n_failures
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
            if self.calls <= self.n_failures:
                raise ValueError(f"flaky failure #{self.calls}")


class TestRetries:
    def test_idempotent_flaky_task_recovers(self):
        flaky = Flaky(1)
        g = chain_graph([flaky, lambda: None], idempotent=True)
        tr = ThreadedExecutor(2, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)).run(g)
        assert flaky.calls == 2
        assert tr.retries() == 1
        assert len(tr.records) == 2

    def test_non_idempotent_flaky_task_fails_structured(self):
        g = chain_graph([Flaky(1), lambda: None], idempotent=False)
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(2, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)).run(g)
        assert ei.value.failure_kind == "task_error"
        assert ei.value.task == "t0"
        assert isinstance(ei.value.__cause__, ValueError)
        assert ei.value.trace is not None

    def test_retries_exhausted(self):
        flaky = Flaky(5)
        g = chain_graph([flaky], idempotent=True)
        with pytest.raises(RuntimeFailure):
            ThreadedExecutor(1, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)).run(g)
        assert flaky.calls == 3  # initial + 2 retries

    def test_plain_executor_raises_structured_failure(self):
        # Unified failure semantics: even with no resilience options
        # configured, a task error surfaces as a RuntimeFailure naming
        # the task and chaining the original exception.
        g = chain_graph([Flaky(1)])
        with pytest.raises(RuntimeFailure, match="flaky") as ei:
            ThreadedExecutor(2).run(g)
        assert ei.value.failure_kind == "task_error"
        assert ei.value.task == "t0"
        assert isinstance(ei.value.__cause__, ValueError)
        assert ei.value.trace is not None


class TestInjectedFaults:
    def test_injected_fault_without_retry_is_structured(self):
        g = chain_graph([lambda: None for _ in range(4)])
        plan = FaultPlan(0, raise_rate=1.0)
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(2, fault_plan=plan).run(g)
        assert ei.value.failure_kind == "injected"
        assert isinstance(ei.value.__cause__, InjectedFault)

    def test_transient_faults_recovered_by_retry(self):
        n = 6
        done = []
        g = chain_graph([(lambda i=i: done.append(i)) for i in range(n)])
        plan = FaultPlan(0, raise_rate=1.0, transient=True)
        tr = ThreadedExecutor(
            2, fault_plan=plan, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)
        ).run(g)
        # Every task faulted pre-execution on attempt 0 and recovered.
        assert sorted(done) == list(range(n))
        assert tr.retries() == n
        assert tr.resilience_summary()["fault_raise"] == n

    def test_fault_schedule_independent_of_workers(self):
        def run(workers):
            g = chain_graph([lambda: None for _ in range(8)])
            plan = FaultPlan(3, raise_rate=0.5, transient=True)
            ThreadedExecutor(
                workers, fault_plan=plan, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)
            ).run(g)
            return sorted((e.kind, e.tid) for e in plan.injected)

        assert run(1) == run(4)

    def test_injected_stall_delays_but_completes(self):
        g = chain_graph([lambda: None])
        plan = FaultPlan(0, stall_rate=1.0, stall_s=0.05)
        t0 = time.perf_counter()
        tr = ThreadedExecutor(1, fault_plan=plan).run(g)
        assert time.perf_counter() - t0 >= 0.05
        assert tr.resilience_summary()["fault_stall"] == 1


class TestWatchdog:
    def test_task_timeout_fires(self):
        g = chain_graph([lambda: time.sleep(0.5)])
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(1, task_timeout=0.05, watchdog_poll_s=0.01).run(g)
        assert ei.value.failure_kind == "timeout"
        assert ei.value.task == "t0"
        assert ei.value.trace is not None

    def test_stall_timeout_fires(self):
        g = chain_graph([lambda: None, lambda: time.sleep(0.5)])
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(1, stall_timeout=0.05, watchdog_poll_s=0.01).run(g)
        assert ei.value.failure_kind == "stall"
        # Partial trace: the first task completed before the stall.
        assert [r.name for r in ei.value.trace.records] == ["t0"]

    def test_watchdog_returns_promptly_not_after_sleep(self):
        g = chain_graph([lambda: time.sleep(1.0)])
        t0 = time.perf_counter()
        with pytest.raises(RuntimeFailure):
            ThreadedExecutor(1, task_timeout=0.05, watchdog_poll_s=0.01).run(g)
        # The stuck worker is abandoned, not joined to completion.
        assert time.perf_counter() - t0 < 0.8

    def test_healthy_run_unaffected_by_watchdog(self):
        g = chain_graph([lambda: None for _ in range(5)])
        tr = ThreadedExecutor(2, task_timeout=5.0, stall_timeout=5.0).run(g)
        assert len(tr.records) == 5 and not tr.events


class TestHealthGuards:
    def test_fatal_guard_aborts_structured(self):
        arr = np.ones(4)

        def bad():
            arr[2] = np.nan

        def guard():
            if not np.isfinite(arr).all():
                return ResilienceEvent("health", "t0", 0, detail="NaN in arr", fatal=True)
            return None

        g = TaskGraph("h")
        g.add("t0", TaskKind.S, Cost("gemm"), fn=bad, health=guard)
        g.add("t1", TaskKind.S, Cost("gemm"), fn=lambda: None, deps=[0])
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(2, retry=RetryPolicy()).run(g)
        assert ei.value.failure_kind == "health"
        assert "NaN" in str(ei.value)

    def test_non_fatal_guard_recorded_only(self):
        g = TaskGraph("h")
        g.add(
            "t0",
            TaskKind.S,
            Cost("gemm"),
            fn=lambda: None,
            health=lambda: ResilienceEvent("health", "t0", 0, detail="warn"),
        )
        tr = ThreadedExecutor(1, retry=RetryPolicy()).run(g)
        assert tr.resilience_summary() == {"health": 1}


class TestTraceEvents:
    def test_summary_mentions_events(self):
        g = chain_graph([Flaky(1)], idempotent=True)
        tr = ThreadedExecutor(1, retry=RetryPolicy(backoff_s=1e-4)).run(g)
        assert "retry" in tr.summary()

    def test_to_json_includes_events(self):
        import json

        g = chain_graph([Flaky(1)], idempotent=True)
        tr = ThreadedExecutor(1, retry=RetryPolicy(backoff_s=1e-4)).run(g)
        data = json.loads(tr.to_json())
        assert data["events"] and data["events"][0]["kind"] == "retry"
