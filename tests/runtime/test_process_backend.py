"""Tests for the shared-memory process backend.

Four layers, matching the subsystem's structure:

* :class:`~repro.runtime.shm.SharedArena` — allocation, spec round-trip,
  zero-copy attach, teardown;
* the worker pool — descriptors really execute in another process,
  worker-side exceptions propagate, a killed worker is detected,
  respawned and surfaced as a structured ``worker_death`` failure;
* engine dispatch — ``meta["op"]`` tasks go to workers (their closures
  are *not* called) and leave their results in the shared buffers the
  parent reads, tasks without one — closure-only, or bound to the heap
  — run inline, and an idempotent task whose worker dies is retried by
  the usual :class:`RetryPolicy`;
* end to end — CALU and CAQR through ``executor="process"`` produce
  **bitwise-identical** factors to the threaded backend on binary and
  flat reduction trees, and checkpoint/resume works across backends.
"""

import os
import time

import numpy as np
import pytest

from repro.core.calu import calu, calu_program
from repro.core.caqr import caqr
from repro.core.driver import algorithm, compile
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.resilience.checkpoint import Checkpoint, MemoryStore
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime import ops
from repro.runtime.engine import _SHIP_MIN_FLOPS, ExecutionEngine
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor, _WorkerPool, resolve_executor
from repro.runtime.shm import SharedArena, ShmBinding, attach_array, spec_nbytes
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import make_rng

TREES = [TreeKind.BINARY, TreeKind.FLAT]

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="test ops are registered in-process and reach workers via fork",
)


# ----------------------------------------------------------------------
# Test-only ops: registered in the parent, inherited by forked workers.
# ----------------------------------------------------------------------


def _op_write_pid(payload):
    buf = attach_array(payload["buf"])
    buf[0] = float(os.getpid())


def _op_die(payload):
    os._exit(3)


def _op_die_once(payload):
    counter = attach_array(payload["counter"])
    if counter[0] == 0:
        counter[0] = 1
        os._exit(3)
    counter[1] = 42.0


def _op_raise(payload):
    raise ValueError(f"worker-side error on {payload['what']}")


def _op_sleep(payload):
    time.sleep(payload["s"])


@pytest.fixture(autouse=True)
def _test_ops():
    extra = {
        "test_write_pid": _op_write_pid,
        "test_die": _op_die,
        "test_die_once": _op_die_once,
        "test_raise": _op_raise,
        "test_sleep": _op_sleep,
    }
    ops.OPS.update(extra)
    yield
    for name in extra:
        ops.OPS.pop(name, None)


# ----------------------------------------------------------------------
# SharedArena
# ----------------------------------------------------------------------


class TestSharedArena:
    def test_alloc_zeroed_aligned_contiguous(self):
        arena = SharedArena()
        try:
            a = arena.alloc((7, 5))
            b = arena.alloc(3, dtype=np.int64)
            assert a.shape == (7, 5) and a.dtype == np.float64
            assert np.all(a == 0) and np.all(b == 0)
            assert a.flags["C_CONTIGUOUS"]
            for arr in (a, b):
                assert arr.__array_interface__["data"][0] % 64 == 0
        finally:
            arena.destroy()

    def test_place_copies_and_spec_round_trips(self):
        arena = SharedArena()
        try:
            src = make_rng(0).standard_normal((6, 4))
            view = arena.place(src)
            assert np.array_equal(view, src)
            assert view is not src
            spec = arena.spec(view)
            assert spec_nbytes(spec) == src.nbytes
            again = attach_array(spec)
            assert np.array_equal(again, src)
            # Same physical pages: a write through one view is seen by
            # the other (this is what makes worker writes visible).
            again[2, 1] = 99.0
            assert view[2, 1] == 99.0
        finally:
            arena.destroy()

    def test_spec_rejects_foreign_and_noncontiguous_arrays(self):
        arena = SharedArena()
        try:
            view = arena.place(np.zeros((4, 4)))
            with pytest.raises(ValueError):
                arena.spec(np.zeros((2, 2)))
            with pytest.raises(ValueError):
                arena.spec(view[:, ::2])
        finally:
            arena.destroy()

    def test_grows_past_one_segment(self):
        arena = SharedArena(segment_bytes=1 << 12)
        try:
            specs = [arena.spec(arena.place(np.full(400, float(i)))) for i in range(4)]
            assert len({s[0] for s in specs}) > 1  # multiple segments
            for i, s in enumerate(specs):
                assert np.all(attach_array(s) == float(i))
        finally:
            arena.destroy()

    def test_destroy_idempotent_and_blocks_alloc(self):
        arena = SharedArena()
        arena.alloc(8)
        arena.destroy()
        arena.destroy()
        with pytest.raises(ValueError):
            arena.alloc(8)

    def test_binding_tracks_matrix_and_workspace(self):
        arena = SharedArena()
        try:
            A = arena.place(np.arange(12.0).reshape(3, 4))
            shm = ShmBinding(arena, A)
            assert np.array_equal(attach_array(shm.a_spec), A)
            view, spec = shm.alloc((2, 2), dtype=np.int64)
            view[:] = 7
            assert np.all(attach_array(spec) == 7)
        finally:
            arena.destroy()


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_op_runs_in_another_process(self):
        arena = SharedArena()
        pool = _WorkerPool(1)
        try:
            buf = arena.alloc(1)
            pool.run(0, ("test_write_pid", {"buf": arena.spec(buf)}))
            assert buf[0] > 0
            assert int(buf[0]) != os.getpid()
        finally:
            pool.close()
            arena.destroy()

    def test_worker_exception_propagates(self):
        pool = _WorkerPool(1)
        try:
            with pytest.raises(ValueError, match="worker-side error on panel-3"):
                pool.run(0, ("test_raise", {"what": "panel-3"}))
            # The worker survived the exception and keeps serving.
            arena = SharedArena()
            try:
                buf = arena.alloc(1)
                pool.run(0, ("test_write_pid", {"buf": arena.spec(buf)}))
                assert buf[0] > 0
            finally:
                arena.destroy()
        finally:
            pool.close()

    def test_worker_death_detected_and_respawned(self):
        arena = SharedArena()
        pool = _WorkerPool(1)
        try:
            buf = arena.alloc(1)
            pool.run(0, ("test_write_pid", {"buf": arena.spec(buf)}))
            first_pid = int(buf[0])
            with pytest.raises(RuntimeFailure) as info:
                pool.run(0, ("test_die", {}))
            assert info.value.failure_kind == "worker_death"
            assert "test_die" in str(info.value)
            # The pool respawned the worker: next dispatch succeeds on a
            # different process.
            pool.run(0, ("test_write_pid", {"buf": arena.spec(buf)}))
            assert int(buf[0]) not in (0, first_pid)
        finally:
            pool.close()
            arena.destroy()

    def test_unknown_op_is_a_worker_side_error(self):
        pool = _WorkerPool(1)
        try:
            with pytest.raises(ValueError, match="unknown op"):
                pool.run(0, ("no_such_op", {}))
        finally:
            pool.close()

    def test_close_idempotent_and_blocks_run(self):
        pool = _WorkerPool(2)
        pool.close()
        pool.close()
        with pytest.raises(ValueError):
            pool.run(0, ("test_write_pid", {}))


# ----------------------------------------------------------------------
# Engine dispatch through ProcessExecutor
# ----------------------------------------------------------------------


def _one_task_graph(fn=None, **meta):
    g = TaskGraph("proc-dispatch")
    g.add("t0", TaskKind.S, Cost("gemm", flops=1e3), fn=fn, **meta)
    return g


class TestEngineDispatch:
    def test_op_task_runs_in_worker_not_closure(self):
        arena = SharedArena()
        closure_ran = []
        try:
            buf = arena.alloc(1)
            with ProcessExecutor(1) as ex:
                ex.run(
                    _one_task_graph(
                        fn=lambda: closure_ran.append(1),
                        op=("test_write_pid", {"buf": arena.spec(buf)}),
                    )
                )
            assert not closure_ran, "descriptor tasks must not run their closure"
            # The worker's result is in the shared buffer itself.
            assert buf[0] > 0 and int(buf[0]) != os.getpid()
        finally:
            arena.destroy()

    def test_closure_only_tasks_run_inline(self):
        ran = []
        with ProcessExecutor(2) as ex:
            ex.run(_one_task_graph(fn=lambda: ran.append(os.getpid())))
            assert ran == [os.getpid()]
            # No descriptors were dispatched, so no worker ever started.
            assert not ex.pool.started

    def test_heap_bound_graph_runs_inline_and_ships_no_array(self):
        # calu_program(A=<plain ndarray>) binds to the heap: its specs
        # are the arrays themselves, so nothing may cross to a worker.
        A = np.random.default_rng(3).standard_normal((96, 64))
        ref = calu(A, b=16, tr=3)
        work = A.copy()
        program, workspaces = calu_program(BlockLayout(96, 64, 16), 3, A=work)
        with ProcessExecutor(2) as ex:
            ex.run(program)
            assert not ex.pool.started
        assert all("op" not in t.meta for t in program.graph.tasks)
        assert np.array_equal(work, ref.lu)
        piv = np.concatenate([ws.piv + 16 * K for K, ws in enumerate(workspaces)])
        assert np.array_equal(piv, ref.piv)

    def test_worker_death_retried_for_idempotent_task(self):
        arena = SharedArena()
        try:
            counter = arena.alloc(2)
            g = TaskGraph("flaky")
            g.add(
                "t0",
                TaskKind.S,
                Cost("gemm", flops=1e3),
                idempotent=True,
                op=("test_die_once", {"counter": arena.spec(counter)}),
            )
            with ProcessExecutor(1, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)) as ex:
                trace = ex.run(g)
            assert counter[1] == 42.0  # second attempt completed the op
            assert trace.resilience_summary().get("retry") == 1
        finally:
            arena.destroy()

    def test_worker_death_without_retry_fails_structured(self):
        g = _one_task_graph(op=("test_die", {}))
        with ProcessExecutor(1) as ex:
            with pytest.raises(RuntimeFailure) as info:
                ex.run(g)
        assert info.value.failure_kind == "worker_death"

    def test_pool_recreated_after_close(self):
        ex = ProcessExecutor(1)
        first = ex.pool
        ex.close()
        assert ex.pool is not first
        ex.close()


# ----------------------------------------------------------------------
# resolve_executor
# ----------------------------------------------------------------------


class TestResolveExecutor:
    def test_strings_create_owned_instances(self):
        for name, cls in (("threaded", ThreadedExecutor), ("process", ProcessExecutor)):
            ex, owned = resolve_executor(name, 2)
            assert isinstance(ex, cls) and owned
            if isinstance(ex, ProcessExecutor):
                ex.close()

    def test_objects_pass_through_unowned(self):
        obj = ThreadedExecutor(2)
        ex, owned = resolve_executor(obj)
        assert ex is obj and not owned

    def test_unknown_string_raises(self):
        for name in ("gpu", "stealing"):
            with pytest.raises(ValueError, match="unknown executor") as info:
                resolve_executor(name)
            assert str(info.value).endswith("expected 'threaded', 'process' or 'auto'")


# ----------------------------------------------------------------------
# End to end: bitwise equality with the threaded backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_calu_process_matches_threaded_bitwise(tree):
    A = make_rng(50).standard_normal((72, 48))
    ref = calu(A, b=12, tr=4, tree=tree, executor="threaded")
    f = calu(A, b=12, tr=4, tree=tree, executor="process")
    np.testing.assert_array_equal(f.piv, ref.piv)
    np.testing.assert_array_equal(f.lu, ref.lu)


@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_caqr_process_matches_threaded_bitwise(tree):
    A = make_rng(51).standard_normal((72, 48))
    ref = caqr(A, b=12, tr=4, tree=tree, executor="threaded")
    f = caqr(A, b=12, tr=4, tree=tree, executor="process")
    np.testing.assert_array_equal(f.R, ref.R)
    np.testing.assert_array_equal(f.packed, ref.packed)
    for s_ref, s_f in zip(ref.panels, f.panels):
        a_ref, a_f = s_ref.to_arrays(), s_f.to_arrays()
        assert set(a_ref) == set(a_f)
        for key in a_ref:
            np.testing.assert_array_equal(a_f[key], a_ref[key])
    rhs = make_rng(52).standard_normal(72)
    np.testing.assert_array_equal(f.apply_qt(rhs), ref.apply_qt(rhs))


def test_tslu_tsqr_process_match_threaded():
    A = make_rng(53).standard_normal((96, 12))
    ref_l, ref_piv = tslu(A.copy(), tr=4, executor="threaded")
    got_l, got_piv = tslu(A.copy(), tr=4, executor="process")
    np.testing.assert_array_equal(got_l, ref_l)
    np.testing.assert_array_equal(got_piv, ref_piv)
    ref_q = tsqr(A.copy(), tr=4, executor="threaded")
    got_q = tsqr(A.copy(), tr=4, executor="process")
    np.testing.assert_array_equal(got_q.R, ref_q.R)


def test_shared_executor_instance_across_runs():
    # One pool, many factorizations: the workers persist across runs.
    A = make_rng(54).standard_normal((48, 32))
    with ProcessExecutor(2) as ex:
        f1 = calu(A, b=8, tr=2, executor=ex)
        f2 = calu(A, b=8, tr=2, executor=ex)
    np.testing.assert_array_equal(f1.lu, f2.lu)
    np.testing.assert_array_equal(f1.piv, f2.piv)


def test_calu_process_crash_resume_bitwise_identical():
    # Crash a threaded checkpointed run mid-flight, then resume it on the
    # process backend: the journal skip + arena repopulation path must
    # still converge to the uninterrupted answer bitwise.
    A0 = make_rng(55).standard_normal((64, 64))
    clean = calu(A0, b=8, tr=2)
    ckpt = Checkpoint(MemoryStore())

    class CrashAfter:
        def __init__(self, inner, n):
            self.inner, self.n, self.count = inner, n, 0

        def run(self, graph, journal=None):
            import threading

            lock = threading.Lock()
            for t in graph.tasks:
                fn = t.fn
                if fn is None:
                    continue

                def wrapped(fn=fn, name=t.name):
                    with lock:
                        self.count += 1
                        if self.count > self.n:
                            raise RuntimeError(f"chaos kill in {name}")
                    fn()

                t.fn = wrapped
            return self.inner.run(graph, journal=journal)

    crash_at = max(1, len(clean.trace.records) // 2)
    with pytest.raises(RuntimeFailure):
        calu(A0, b=8, tr=2, executor=CrashAfter(ThreadedExecutor(2), crash_at), checkpoint=ckpt)
    f = calu(A0, b=8, tr=2, executor="process", checkpoint=ckpt)
    if ckpt.snapshot_chain():
        assert f.trace.resilience_summary().get("resume") == 1
    np.testing.assert_array_equal(f.lu, clean.lu)
    np.testing.assert_array_equal(f.piv, clean.piv)


def test_solve_and_lstsq_accept_process_executor():
    from repro.linalg import lstsq, solve

    rng = make_rng(56)
    A = rng.standard_normal((48, 48)) + 48 * np.eye(48)
    rhs = rng.standard_normal(48)
    x_t = solve(A, rhs, executor="threaded")
    x_p = solve(A, rhs, executor="process")
    np.testing.assert_array_equal(x_p, x_t)
    B = rng.standard_normal((64, 32))
    c = rng.standard_normal(64)
    y_t = lstsq(B, c, executor="threaded")
    y_p = lstsq(B, c, executor="process")
    np.testing.assert_array_equal(y_p, y_t)


# ----------------------------------------------------------------------
# The dispatcher is the last lane: W - 1 processes and the parent
# ----------------------------------------------------------------------


class _KeepsTrace(ProcessExecutor):
    def run(self, graph, journal=None):
        self.trace = super().run(graph, journal=journal)
        return self.trace


def _factors(alg, A, executor):
    if alg == "calu":
        f = calu(A, b=32, tr=4, executor=executor)
        return f.lu, f.piv
    if alg == "caqr":
        f = caqr(A, b=32, tr=4, executor=executor)
        return f.R, f.packed
    if alg == "tslu":
        return tslu(A[:, :32], tr=8, executor=executor)
    f = tsqr(A[:, :32], tr=8, executor=executor)
    return f.R, f.q_explicit()


@pytest.mark.parametrize("W", [2, 3])
@pytest.mark.parametrize("alg", ["calu", "caqr", "tslu", "tsqr"])
def test_the_dispatcher_runs_the_last_of_w_lanes(alg, W):
    # Tall enough that the leaves clear _SHIP_MIN_FLOPS: smaller tasks
    # stay on the dispatcher's lane and would leave a process idle.
    A = make_rng(57).standard_normal((1024, 96))
    want = _factors(alg, A, ThreadedExecutor(1))
    with _KeepsTrace(W) as ex:
        got = _factors(alg, A, ex)
        assert ex.pool.n_workers == len(ex.pool._procs) == W - 1
        assert ex.pool.liveness() == [True] * (W - 1)
    trace = ex.trace
    assert trace.n_cores == W
    graph_ops = trace.stats["n_tasks"]  # every task of a shared-plane graph has a descriptor
    assert len(trace.records) == graph_ops
    assert {r.core for r in trace.records} == set(range(W))  # the parent's lane included
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def test_one_process_has_no_parent_lane():
    A = make_rng(58).standard_normal((128, 64))
    want = _factors("calu", A, ThreadedExecutor(1))
    with _KeepsTrace(1) as ex:
        got = _factors("calu", A, ex)
        assert ex.pool.n_workers == 1
    assert ex.trace.n_cores == 1 and {r.core for r in ex.trace.records} == {0}
    assert ex.trace.stats["messages"] > 0
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def test_closures_wait_for_the_one_process_lane():
    """With one process its lane is also where closures run: a closure
    starts only once the process has nothing in flight, so no two spans
    of lane 0 overlap."""
    g = TaskGraph("mixed")
    for i in range(12):
        if i % 3:
            g.add(f"t{i}", TaskKind.S, Cost("gemm", flops=1e3), op=("test_sleep", {"s": 0.01}))
        else:
            g.add(f"t{i}", TaskKind.S, Cost("gemm", flops=1e3), fn=lambda: time.sleep(0.01))
    with ProcessExecutor(1) as ex:
        trace = ex.run(g)
    assert trace.n_cores == 1 and {r.core for r in trace.records} == {0}
    assert len(trace.records) == 12
    trace.validate_schedule(g)


def test_an_engine_needs_a_process_per_lane_but_its_own():
    pool = _WorkerPool(1)
    try:
        ExecutionEngine(2, process_pool=pool)  # one process and the dispatcher
        with pytest.raises(ValueError, match="3 lanes needs 2 worker processes"):
            ExecutionEngine(3, process_pool=pool)
    finally:
        pool.close()


def test_the_parent_lane_token_is_one_per_pool():
    pool = _WorkerPool(1)
    assert pool.take_lane() and not pool.take_lane()
    pool.give_lane()
    assert pool.take_lane()
    pool.give_lane()
    assert not pool.started  # the token spawns nothing


@pytest.mark.parametrize("faulted", ["P", "S"], ids=["parent-lane", "worker"])
def test_an_injected_fault_retries_alike_on_either_lane(faulted):
    """The highest-priority ready task (the P one) runs on the
    dispatcher's lane, the rest in the worker process; a fault injected
    into either is logged, retried under the policy and completes, or
    without a policy ends the run with the same structured failure."""
    from repro.resilience.faults import FaultPlan

    def graph():
        g = TaskGraph("lanes")
        g.add("p", TaskKind.P, Cost("gemm", flops=1e3), priority=10.0, op=("noop", {}))
        for i in range(3):  # worth a round trip: dealt to the process
            g.add(f"s{i}", TaskKind.S, Cost("gemm", flops=_SHIP_MIN_FLOPS), op=("noop", {}))
        return g

    faults = lambda: FaultPlan(1, raise_rate={faulted: 1.0, "*": 0.0})
    lane_of = {"P": 1, "S": 0}[faulted]
    retry = RetryPolicy(max_retries=1, backoff_s=1e-4)
    with ProcessExecutor(2, fault_plan=faults(), retry=retry) as ex:
        trace = ex.run(graph())
    hit = [r for r in trace.records if r.kind.value == faulted]
    assert hit and {r.core for r in hit} <= {lane_of} | ({0} if faulted == "S" else set())
    assert {r.core for r in trace.records if r.kind.value == "P"} == {1}
    for r in hit:
        assert [e.kind for e in trace.events if e.task == r.name] == ["fault_raise", "retry"]
    with ProcessExecutor(2, fault_plan=faults()) as ex:
        with pytest.raises(RuntimeFailure) as info:
            ex.run(graph())
    assert info.value.failure_kind == "injected"
    assert info.value.task in {r.name for r in hit}


# ----------------------------------------------------------------------
# Tasks cheaper than a round trip stay on the dispatcher's lane
# ----------------------------------------------------------------------

#: name -> (m, n, b, tr): the benchmark's square and tall-skinny CALU.
SHIP_SHAPES = {"lu_square": (256, 256, 16, 2), "lu_tall": (2560, 128, 32, 8)}


@pytest.mark.parametrize("name", SHIP_SHAPES)
def test_tasks_under_the_shipping_floor_run_on_the_dispatchers_lane(name):
    """Under ``Process(2)`` every task below ``_SHIP_MIN_FLOPS`` runs on
    the dispatcher's lane (1): on the square shape that is every merge,
    finalize and U task; the tall shape's leaves clear the floor and are
    dealt to the process (lane 0).  The factors are the serial ones, bit
    for bit."""
    m, n, b, tr = SHIP_SHAPES[name]
    A = make_rng(m + n).standard_normal((m, n))
    want = calu(A, b=b, tr=tr, executor=ThreadedExecutor(1))
    plan = compile(algorithm("lu"), A, b=b, tr=tr, tree=TreeKind.BINARY, shared=True)
    try:
        with ProcessExecutor(2) as ex:
            trace = plan.run(ex)
        got = plan.result(trace, np.array)
        tasks = plan.program.graph.tasks
    finally:
        plan.close()
    np.testing.assert_array_equal(got.lu, want.lu)
    np.testing.assert_array_equal(got.piv, want.piv)
    lane = {r.tid: r.core for r in trace.records}
    assert all(lane[t.tid] == 1 for t in tasks if t.cost.flops < _SHIP_MIN_FLOPS)
    if name == "lu_square":
        home = [t for t in tasks if "merge" in t.name or t.name.startswith("F[")]
        home += [t for t in tasks if t.kind is TaskKind.U]
        assert home and all(lane[t.tid] == 1 for t in home)
        assert 0 in lane.values()  # the process still gets the big S tiles
    else:
        leaves = [t for t in tasks if "leaf" in t.name]
        assert all(t.cost.flops >= _SHIP_MIN_FLOPS for t in leaves)
        assert any(lane[t.tid] == 0 for t in leaves)


def test_an_engine_without_the_token_deals_small_tasks_too():
    """The floor applies only while the dispatcher holds the parent-lane
    token: without it every descriptor task goes to the process."""
    g = TaskGraph("small")
    for i in range(6):
        g.add(f"t{i}", TaskKind.S, Cost("gemm", flops=1e3), op=("noop", {}))
    pool = _WorkerPool(1)
    try:
        assert pool.take_lane()  # held elsewhere for the whole run
        trace = ExecutionEngine(2, process_pool=pool).run(g)
        pool.give_lane()
    finally:
        pool.close()
    assert {r.core for r in trace.records} == {0}


def test_a_dealt_task_waits_out_a_pass_of_inline_tasks_within_its_timeout():
    """One pass keeps six small tasks (50 ms each) and deals one big one:
    the big one is acked only after all six ran, and its allowance of
    ``task_timeout`` grows by the lane's tasks of that pass, so a tight
    timeout (100 ms) does not trip on it."""
    g = TaskGraph("behind")
    for i in range(6):
        g.add(f"k{i}", TaskKind.U, Cost("gemm", flops=1e3), priority=10.0 - i,
              op=("test_sleep", {"s": 0.05}))
    g.add("d", TaskKind.S, Cost("gemm", flops=_SHIP_MIN_FLOPS), op=("noop", {}))
    with ProcessExecutor(2, task_timeout=0.1) as ex:
        trace = ex.run(g)
    lane = {r.name: r.core for r in trace.records}
    assert lane == {**{f"k{i}": 1 for i in range(6)}, "d": 0}


bindable = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="binding lanes needs sched_setaffinity and two CPUs",
)


@bindable
def test_workers_keep_off_the_dispatchers_cpu_under_a_one_thread_blas(monkeypatch):
    from repro.runtime import process

    monkeypatch.setattr(process, "_blas_threads", lambda: 1)
    caller = os.sched_getaffinity(0)
    seen = []
    g = TaskGraph("where")
    for i in range(3):  # ready side by side: the lane takes one, the worker the rest
        g.add(f"t{i}", TaskKind.S, Cost("gemm", flops=_SHIP_MIN_FLOPS), op=("noop", {}))
    g.add("c", TaskKind.S, Cost("gemm", flops=1e3), fn=lambda: seen.append(os.sched_getaffinity(0)))
    with ProcessExecutor(2) as ex:
        ex.run(g)
        cpus = ex.pool._cpus
        assert cpus == sorted(caller)
        assert os.sched_getaffinity(ex.pool._procs[0].pid) == set(cpus[:-1])
    assert seen == [{cpus[-1]}]  # the dispatcher thread: the one CPU the workers keep off
    assert os.sched_getaffinity(0) == caller  # the caller's thread is left as it was


@bindable
def test_lanes_stay_unbound_under_a_threaded_blas_or_too_few_cpus(monkeypatch):
    from repro.runtime import process

    n = len(os.sched_getaffinity(0))
    monkeypatch.setattr(process, "_blas_threads", lambda: 2)
    assert process._lane_cpus(1) is None  # each kernel's threads would stack on one CPU
    monkeypatch.setattr(process, "_blas_threads", lambda: 1)
    assert process._lane_cpus(n) is None  # no CPU left for the dispatchers
    assert len(process._lane_cpus(n - 1)) == n
