"""Property test: random DAGs under injected failures, every real-clock executor.

The invariant (the satellite's acceptance criterion): for any DAG shape
and any deterministic fault plan, an executor run either

* completes with every task's value equal to the fault-free sequential
  result (retries may occur, but never corrupt dataflow), or
* raises a structured ``RuntimeFailure`` whose partial trace is
  dependency-closed — every recorded task ran after all of its
  predecessors.

Never a hang (the per-test timeout in conftest backstops that), never a
silently wrong value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor

# All pool front-ends share the engine's retry/fault/journal lifecycle,
# so the executor-semantics properties must hold for each of them.
# (These graphs are closure-only, so the process backend exercises its
# proxy-thread path: descriptors absent -> tasks run inline in-parent.)
POOL_EXECUTORS = [
    pytest.param(ThreadedExecutor, id="threaded"),
    pytest.param(ProcessExecutor, id="process"),
]


def value_graph(seed: int, n_tasks: int) -> tuple[TaskGraph, dict, list]:
    """A random DAG computing ``vals[i] = 1 + sum(vals[preds])``.

    The recurrence makes every value depend on the exact set of
    predecessor values, so a task that ran before its inputs — or ran
    twice with stale inputs — produces a detectably wrong number.
    """
    rng = np.random.default_rng(seed)
    g = TaskGraph(f"prop{seed}")
    vals: dict[int, float] = {}
    deps_record: list[list[int]] = []

    def mk(i, deps):
        def fn():
            vals[i] = 1.0 + sum(vals[d] for d in deps)

        return fn

    for i in range(n_tasks):
        k = int(rng.integers(0, min(i, 3) + 1))
        deps = sorted(rng.choice(i, size=k, replace=False).tolist()) if i and k else []
        deps_record.append(deps)
        g.add(
            f"t{i}",
            TaskKind.S,
            Cost("gemm", flops=1e3),
            fn=mk(i, deps),
            deps=deps,
            idempotent=True,
        )
    return g, vals, deps_record


def sequential_values(deps_record: list[list[int]]) -> dict[int, float]:
    vals: dict[int, float] = {}
    for i, deps in enumerate(deps_record):
        vals[i] = 1.0 + sum(vals[d] for d in deps)
    return vals


def assert_trace_dependency_closed(trace, deps_record) -> None:
    done = {r.tid for r in trace.records}
    for r in trace.records:
        missing = [d for d in deps_record[r.tid] if d not in done]
        assert not missing, f"t{r.tid} recorded but its deps {missing} are not"


@pytest.mark.parametrize("executor_cls", POOL_EXECUTORS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_tasks=st.integers(1, 24))
def test_pool_transient_faults_never_corrupt_dataflow(executor_cls, seed, n_tasks):
    g, vals, deps = value_graph(seed, n_tasks)
    plan = FaultPlan(seed, raise_rate=0.3, transient=True)
    ex = executor_cls(
        3, fault_plan=plan, retry=RetryPolicy(max_retries=3, backoff_s=1e-5)
    )
    trace = ex.run(g)
    assert vals == sequential_values(deps)
    assert len(trace.records) == n_tasks


@pytest.mark.parametrize("executor_cls", POOL_EXECUTORS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_tasks=st.integers(1, 24))
def test_pool_permanent_faults_fail_structured(executor_cls, seed, n_tasks):
    g, vals, deps = value_graph(seed, n_tasks)
    # Permanent faults with no retry budget: either the plan happened to
    # spare every task, or the run dies structured with a closed trace.
    plan = FaultPlan(seed, raise_rate=0.3)
    ex = executor_cls(3, fault_plan=plan, retry=RetryPolicy(max_retries=0))
    try:
        trace = ex.run(g)
    except RuntimeFailure as e:
        assert e.failure_kind == "injected"
        assert e.task, "structured failure must name its victim"
        assert e.trace is not None
        assert_trace_dependency_closed(e.trace, deps)
        # Whatever did complete computed the right value.
        seq = sequential_values(deps)
        for r in e.trace.records:
            assert vals.get(r.tid) == seq[r.tid]
    else:
        assert vals == sequential_values(deps)
        assert len(trace.records) == n_tasks


@pytest.mark.parametrize("executor_cls", POOL_EXECUTORS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_worker_count_does_not_change_results(executor_cls, seed):
    results = []
    for workers in (1, 2, 4):
        g, vals, deps = value_graph(seed, 16)
        plan = FaultPlan(seed, raise_rate=0.4, stall_rate=0.2, stall_s=1e-4, transient=True)
        ex = executor_cls(
            workers, fault_plan=plan, retry=RetryPolicy(max_retries=4, backoff_s=1e-5)
        )
        ex.run(g)
        results.append(vals == sequential_values(deps))
    assert results == [True, True, True]
