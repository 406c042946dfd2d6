"""The idle-plan pool behind ``factorize`` (:class:`repro.core.driver.PlanPool`).

A finished plan waits for the next matrix of its key, so a repeated
shape pays ``Plan.load`` and not emission and staging.  What that must
never change: the bits, who owns a result's memory, which plan a call
gets, and what is left behind.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import close_plans
from repro.core import driver
from repro.core.calu import calu
from repro.core.trees import TreeKind
from repro.resilience import Checkpoint, FaultPlan, MemoryStore
from repro.runtime import shm
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from repro.service import FactorizationService, ServiceConfig
from tests.core.test_staging import _outputs

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests require the fork start method",
)
PLANES = ["threaded", pytest.param("process", marks=fork_only)]


def _matrix(seed=41, shape=(72, 40)):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """A pool of the driver's own making per test, so its counts start at zero."""
    fresh = driver.PlanPool(driver._POOL_BYTES, size=lambda plan: plan.nbytes)
    monkeypatch.setattr(driver, "_PLANS", fresh)
    yield
    fresh.close()


def _counts():
    return driver._PLANS.stats()


def _pooled_plans():
    return [plan for _, plan, _ in driver._PLANS._idle]


@pytest.fixture
def emitted(monkeypatch):
    """Every task entering a graph (``TaskGraph.add``: under the tracker's
    ``add_task``, fusion and the epilogue alike), as a growing list."""
    calls = []
    add = TaskGraph.add

    def spy(self, name, *args, **kwargs):
        calls.append(name)
        return add(self, name, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "add", spy)
    return calls


@pytest.mark.parametrize("backend", PLANES)
@pytest.mark.parametrize("name", ["calu", "caqr", "tsqr", "tslu"])
def test_a_repeated_shape_emits_once_and_every_result_owns_its_memory(name, backend, emitted):
    A = _matrix()
    first = _outputs(name, A, backend)
    assert emitted, "the first call builds its graph"
    del emitted[:]
    second = _outputs(name, A, backend)
    assert emitted == []
    assert _counts() == {"cached": 1, "hits": 1, "builds": 1, "ephemeral": 0}
    (plan,) = _pooled_plans()
    buffers = [plan.A] + [a for panel in plan.state for a in panel.to_arrays().values()]
    for x, y in zip(first, second, strict=True):
        assert np.array_equal(x, y)
        if not np.ndim(x):  # a count among the QR store's arrays
            continue
        assert not any(np.shares_memory(out, buf) for out in (x, y) for buf in buffers)
        kept = y.copy()
        x[...] = 0  # the first result is the caller's to scribble on
        assert np.array_equal(y, kept)


BASE = {"b": 8, "tr": 3, "tree": TreeKind.BINARY}
OTHER_KEYS = {
    "b": {"b": 16},
    "tr": {"tr": 2},
    "tree": {"tree": TreeKind.FLAT},
    "guards": {"guards": False},
    "lookahead": {"lookahead": 0},
    "abft": {"abft": True},
}


@pytest.mark.parametrize("knob", OTHER_KEYS)
def test_every_knob_is_part_of_the_key(knob):
    A = _matrix()
    calu(A, **BASE)
    want = driver.compile(driver.ALGORITHMS["lu"], A, **{**BASE, **OTHER_KEYS[knob]})
    want = want.result(want.run(ThreadedExecutor(2)))
    got = calu(A, **{**BASE, **OTHER_KEYS[knob]})
    assert _counts() == {"cached": 2, "hits": 0, "builds": 2, "ephemeral": 0}
    assert np.array_equal(got.lu, want.lu) and np.array_equal(got.piv, want.piv)


def test_the_dtype_and_the_plane_are_part_of_the_key():
    A = _matrix()
    calu(A, **BASE)
    single = calu(A.astype(np.float32), **BASE)
    assert single.lu.dtype == np.float32
    assert _counts()["builds"] == 2 and _counts()["hits"] == 0
    if "fork" in multiprocessing.get_all_start_methods():
        with ProcessExecutor(2) as pool:
            calu(A, executor=pool, **BASE)
        assert _counts() == {"cached": 3, "hits": 0, "builds": 3, "ephemeral": 0}
        assert sorted(plan.store.shared for plan in _pooled_plans()) == [False, False, True]


def test_a_panel_driver_never_takes_the_full_algorithms_plan():
    # tslu(A) is bitwise calu(A, b=n), but it returns another object.
    A = _matrix(shape=(72, 24))
    lu = calu(A, b=24, tr=3, tree=TreeKind.BINARY)
    panel, piv = driver.factorize(driver.TSLU, A, tr=3, tree=TreeKind.BINARY)
    assert _counts()["hits"] == 0
    assert np.array_equal(panel, lu.lu) and np.array_equal(piv, lu.piv)


def test_auto_is_keyed_by_what_it_decided():
    A = _matrix(shape=(96, 96))
    first = calu(A, b=16, tr=2, executor="auto")
    again = calu(A, b=16, tr=2, executor="auto")
    assert _counts()["hits"] == 1
    assert np.array_equal(first.lu, again.lu)
    # The decision is the call's own, on a reused plan too.
    assert [e.kind for e in again.trace.events].count("autotune") == 1


def test_a_checkpoint_bypasses_the_pool():
    A = _matrix()
    ref = calu(A, **BASE)
    before = _counts()
    resumed = calu(A, checkpoint=Checkpoint(MemoryStore()), **BASE)
    assert _counts() == before
    assert np.array_equal(resumed.lu, ref.lu)


def test_an_unhashable_build_value_bypasses_the_pool():
    def program(*args, tag, **kwargs):
        return driver.ALGORITHMS["lu"].program(*args, **kwargs)

    alg = dataclasses.replace(driver.ALGORITHMS["lu"], program=program)
    A = _matrix()
    knobs = {"b": 8, "tr": 3, "tree": TreeKind.BINARY}
    driver.factorize(alg, A, tag=["unhashable"], **knobs)
    assert _counts() == {"cached": 0, "hits": 0, "builds": 0, "ephemeral": 0}
    driver.factorize(alg, A, tag="hashable", **knobs)
    assert _counts()["cached"] == 1


_REFERENCE = """
import sys
import numpy as np
from repro import calu, TreeKind
A = np.random.default_rng(43).standard_normal((96, 64))
f = calu(A, b=16, tr=2, tree=TreeKind.BINARY)
np.savez(sys.argv[1], lu=f.lu, piv=f.piv)
"""


@pytest.mark.parametrize("backend", PLANES)
def test_concurrent_callers_of_one_shape_all_get_the_reference_bits(backend, tmp_path):
    path = tmp_path / "ref.npz"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", _REFERENCE, str(path)], check=True, env=env, timeout=60)
    ref = np.load(path)
    A = np.random.default_rng(43).standard_normal((96, 64))
    results: list = []
    errors: list = []
    executor = ThreadedExecutor(2) if backend == "threaded" else ProcessExecutor(2)

    def caller():
        try:
            for _ in range(6):
                results.append(calu(A, b=16, tr=2, tree=TreeKind.BINARY, executor=executor))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    try:
        threads = [threading.Thread(target=caller) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads)
    finally:
        if backend == "process":
            executor.close()
    assert not errors and len(results) == 12
    for f in results:
        assert np.array_equal(f.lu, ref["lu"]) and np.array_equal(f.piv, ref["piv"])
    counts = _counts()
    assert counts["hits"] + counts["builds"] == 12 and 1 <= counts["cached"] <= 2


def test_a_clean_call_after_a_corrupted_one_sees_no_trace_of_it():
    A = _matrix(shape=(96, 96))
    knobs = {"b": 16, "tr": 3, "tree": TreeKind.BINARY}
    ref = calu(A, **knobs)
    close_plans()
    executor = ThreadedExecutor(2, fault_plan=FaultPlan(corrupt_rate={"P": 1.0}, max_faults=1))
    hurt = calu(A, executor=executor, **knobs)
    assert "recompute" in {e.kind for e in hurt.trace.events}
    clean = calu(A, executor=executor, **knobs)  # the same plan, the budget spent
    assert _counts()["hits"] == 1
    assert "recompute" not in {e.kind for e in clean.trace.events}
    assert clean.recovered_panels == ()
    for f in (hurt, clean):
        assert np.array_equal(f.lu, ref.lu) and np.array_equal(f.piv, ref.piv)


def test_a_check_in_after_the_service_closed_only_closes_the_plan():
    # A request still running when its service closes checks its plan in
    # afterwards: the plan is closed, and the counts keep saying it was
    # built once, kept and hit — not that it was too big to keep.
    svc = FactorizationService(ServiceConfig(cores=2, backend="threaded"))
    params = (16, 2, TreeKind.BINARY)
    key, plan = svc._plan_for("lu", (48, 32), params)
    svc._plans.checkin(key, plan)
    key, again = svc._plan_for("lu", (48, 32), params)
    assert again is plan
    before = svc._plans.stats()
    assert before == {"cached": 0, "hits": 1, "builds": 1, "ephemeral": 0}
    svc.close()
    closed = []
    plan.close = lambda: closed.append(plan)
    svc._plans.checkin(key, plan)
    assert closed == [plan]
    assert svc._plans.stats() == before


def test_a_plan_whose_run_raised_is_closed_not_pooled():
    from repro.resilience import RuntimeFailure

    A = _matrix()
    executor = ThreadedExecutor(2, fault_plan=FaultPlan(raise_rate=1.0, transient=False))
    with pytest.raises(RuntimeFailure):
        calu(A, executor=executor, **BASE)
    assert _counts() == {"cached": 0, "hits": 0, "builds": 1, "ephemeral": 0}


@fork_only
def test_the_byte_bound_evicts_the_least_recently_used_plan():
    shapes = [(64, 32), (72, 32), (80, 32)]
    with ProcessExecutor(2) as pool:
        calu(_matrix(shape=shapes[0]), b=8, tr=2, executor=pool)
        (oldest,) = _pooled_plans()
        calu(_matrix(shape=shapes[1]), b=8, tr=2, executor=pool)
        held = sum(plan.nbytes for plan in _pooled_plans())
        driver._PLANS.bound = held + held // 4  # room for two, not three
        calu(_matrix(shape=shapes[2]), b=8, tr=2, executor=pool)
    assert oldest not in _pooled_plans() and oldest._arena._destroyed
    assert [plan.layout.m for plan in _pooled_plans()] == [72, 80]
    assert _counts() == {"cached": 2, "hits": 0, "builds": 3, "ephemeral": 0}


def test_a_plan_over_the_budget_streams_and_is_never_kept():
    driver._PLANS.bound = 1024
    A = _matrix()
    first, second = calu(A, **BASE), calu(A, **BASE)
    assert _counts() == {"cached": 0, "hits": 0, "builds": 0, "ephemeral": 2}
    assert np.array_equal(first.lu, second.lu)
    stats = second.trace.stats  # built again, and the whole graph live from the start
    assert stats["peak_live_tasks"] == stats["n_tasks"] and stats["emit_seconds"] > 0.0


@fork_only
def test_close_plans_leaves_no_arena_and_no_segment():
    with ProcessExecutor(2) as pool:
        for shape in [(64, 32), (72, 32)]:
            calu(_matrix(shape=shape), b=8, tr=2, executor=pool)
    arenas = [plan._arena for plan in _pooled_plans()]
    segments = [f"/dev/shm/{seg.name}" for arena in arenas for seg in arena._segments]
    assert len(arenas) == 2 and all(os.path.exists(path) for path in segments)
    close_plans()
    assert _counts()["cached"] == 0
    assert all(arena._destroyed for arena in arenas)
    assert not any(os.path.exists(path) for path in segments)
    assert not [arena for arena in shm._LIVE_ARENAS if not arena._destroyed]


def test_a_run_reports_its_own_emission():
    alg = driver.ALGORITHMS["lu"]
    A = _matrix()
    plan = driver.compile(alg, A, **BASE)
    executor = ThreadedExecutor(2)
    first = plan.run(executor).stats
    plan.load(A)
    second = plan.run(executor).stats
    assert first["emit_seconds"] > 0.0 and first["peak_live_tasks"] == first["n_tasks"]
    assert second["emit_seconds"] == 0.0
    assert second["peak_live_tasks"] == second["n_tasks"]


def test_compile_emits_the_whole_program():
    plan = driver.compile(driver.ALGORITHMS["lu"], _matrix(), **BASE)
    try:
        program = plan.program
        assert len(program.windows) == program.n_windows > 1
        assert len(program) == len(program.graph.tasks) == program.windows[-1][1]
        assert len(plan.state) == plan.layout.n_panels
    finally:
        plan.close()


@pytest.mark.parametrize("backend", ["threaded", pytest.param("process", marks=fork_only)])
def test_a_plan_building_run_has_every_task_live_from_the_start(backend):
    executor = {
        "threaded": lambda: ThreadedExecutor(2),
        "process": lambda: ProcessExecutor(2),
    }[backend]()
    try:
        stats = calu(_matrix(), **BASE, executor=executor).trace.stats
    finally:
        if backend == "process":
            executor.close()
    assert _counts()["builds"] == 1
    assert stats["emit_seconds"] > 0.0 and stats["peak_live_tasks"] == stats["n_tasks"]


def test_an_untargeted_fault_plan_is_aimed_for_one_run_only():
    # The first run used to leave the plan aimed at its own working
    # buffer: later calls of other shapes ran clean while the faults
    # landed in the closed first plan's buffer.
    plan = FaultPlan(1, corrupt_rate={"S": 1.0})
    executor = ThreadedExecutor(1, fault_plan=plan)
    for n in (64, 96):
        plan._budget = 1  # one fault per call
        with pytest.raises(RuntimeFailure) as info:
            calu(_matrix(shape=(n, n)), b=16, tr=2, executor=executor)
        assert info.value.failure_kind == "health"
    assert plan.target is None
