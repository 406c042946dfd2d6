"""Task fusion preserves every property the unfused graph proves.

The fused rewrite (:mod:`repro.runtime.fuse`) changes the unit of
dispatch, never the meaning: these tests hold it to that bar —

* structure: group caps, ``X``-task exclusion, footprint unions,
  acyclicity, race-freedom on real builder graphs *and* on randomly
  generated tracker graphs (the property test);
* numerics: bitwise-identical factors through the threaded,
  work-stealing and process backends with fusion on;
* resilience at super-task granularity: journal resume skips completed
  super-tasks by name, and a worker death mid-batch retries the whole
  descriptor list on a fresh worker.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.calu import calu_program, calu
from repro.core.caqr import caqr
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.core.tsqr import tsqr
from repro.resilience.checkpoint import Checkpoint, MemoryStore
from repro.resilience.recovery import RetryPolicy
from repro.runtime import ops
from repro.runtime.fuse import FUSED_KERNEL, fusable_task, fuse_program
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.program import as_program
from repro.runtime.shm import SharedArena, attach_array
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from repro.verify.races import check_races

fork_available = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="test ops are registered in-process and reach workers via fork"
)


def _race_errors(graph: TaskGraph):
    return [f for f in check_races(graph) if f.severity == "error"]


def _member_names(graph: TaskGraph) -> list[str]:
    """Original task names, ungrouping fused super-tasks."""
    out: list[str] = []
    for t in graph.tasks:
        out.extend(t.meta.get("fused", (t.name,)))
    return out


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------


class TestStructure:
    def _calu_graph(self, tree=TreeKind.BINARY):
        layout = BlockLayout(48, 48, 8)
        return calu_program(layout, 4, tree)[0].materialize()

    def test_max_ops_one_is_identity(self):
        g = self._calu_graph()
        p = as_program(g)
        assert fuse_program(p, max_ops=1) is p
        assert len(fuse_program(g, max_ops=1).materialize().tasks) == len(g.tasks)

    def test_groups_respect_cap_and_preserve_membership(self):
        g = self._calu_graph()
        for cap in (2, 4, 8, 16):
            fused = fuse_program(g, max_ops=cap).materialize()
            assert len(fused.tasks) < len(g.tasks)  # something actually fused
            for t in fused.tasks:
                members = t.meta.get("fused")
                if members is not None:
                    assert 2 <= len(members) <= cap
                    assert t.cost.kernel == FUSED_KERNEL
            # Every original task appears exactly once across the rewrite.
            assert sorted(_member_names(fused)) == sorted(x.name for x in g.tasks)

    def test_x_tasks_stay_singletons(self):
        layout = BlockLayout(48, 48, 8)
        A = np.random.default_rng(0).standard_normal((48, 48))
        program, _ = calu_program(
            layout, 4, TreeKind.BINARY, A=A, checkpoint=Checkpoint(MemoryStore())
        )
        fused = fuse_program(program, max_ops=8).materialize()
        names = {t.name for t in fused.tasks}
        for t in fused.tasks:
            if t.kind is TaskKind.X:
                assert "fused" not in t.meta
        # Checkpoint tasks and the left-swap epilogue keep their identity
        # (their names are journal resume keys).
        assert "leftswaps" in names
        assert any(name.startswith("C[") for name in names)

    def test_footprints_are_member_unions(self):
        g = self._calu_graph()
        by_name = {t.name: t for t in g.tasks}
        fused = fuse_program(g, max_ops=8).materialize()
        for t in fused.tasks:
            members = t.meta.get("fused")
            if members is None:
                continue
            reads = frozenset().union(*(by_name[m].reads for m in members))
            writes = frozenset().union(*(by_name[m].writes for m in members))
            assert t.reads == reads and t.writes == writes
            assert t.cost.flops == sum(by_name[m].cost.flops for m in members)

    @pytest.mark.parametrize(
        "m, n, b, tr", [(2560, 128, 32, 8), (256, 256, 16, 2)], ids=["lu_tall", "lu_square"]
    )
    def test_super_tasks_are_priced_as_their_members(self, m, n, b, tr):
        # Fusing changes the unit of dispatch, not the simulated work: on
        # one core, makespan minus per-task overhead is the kernel time.
        from repro.machine.presets import intel8_mkl
        from repro.runtime.simulated import SimulatedExecutor

        mach = intel8_mkl(cores=1)

        def kernel_time(graph):
            overhead = sum(mach.task_overhead_s(t.cost) for t in graph.tasks)
            return SimulatedExecutor(mach).run(graph).makespan - overhead

        def graph():
            return calu_program(BlockLayout(m, n, b), tr, TreeKind.BINARY)[0].materialize()

        fused = fuse_program(graph(), max_ops=8).materialize()
        assert len(fused.tasks) < len(graph().tasks)
        for t in fused.tasks:
            if "fused" in t.meta:
                assert len(t.cost.members) == len(t.meta["fused"])
        assert kernel_time(fused) == pytest.approx(kernel_time(graph()), rel=0.05)

    def test_fused_builder_graphs_stay_race_free(self):
        for tree in (TreeKind.BINARY, TreeKind.FLAT):
            for cap in (2, 8):
                fused = fuse_program(self._calu_graph(tree), max_ops=cap).materialize()
                assert not _race_errors(fused)
                fused.topological_order()  # raises on a cycle

    def test_unfusable_tasks(self):
        g = TaskGraph("t")
        x = g.add("x", TaskKind.X, Cost("noop"))
        bare = g.add("bare", TaskKind.S, Cost("gemm", flops=1.0))
        foot = g.add(
            "foot", TaskKind.S, Cost("gemm", flops=1.0), reads=frozenset({1}), writes=frozenset({2})
        )
        assert not fusable_task(g.tasks[x])
        assert not fusable_task(g.tasks[bare])  # no footprint -> singleton
        assert fusable_task(g.tasks[foot])


# ----------------------------------------------------------------------
# Property test: random tracker graphs
# ----------------------------------------------------------------------


def _random_tracker_graph(seed: int, n_tasks: int = 40, n_blocks: int = 12):
    """A random race-free graph of closures mutating a shared vector.

    Dependencies come from :class:`BlockTracker` exactly as the real
    builders derive them, so the graph is race-free by construction and
    any valid schedule produces the same bytes.
    """
    rng = np.random.default_rng(seed)
    state = np.zeros(n_blocks)

    def make_fn(t, reads, writes):
        def fn() -> None:
            acc = float(t)
            for r in sorted(reads):
                acc += state[r]
            for w in sorted(writes):
                state[w] = 0.5 * state[w] + acc
        return fn

    graph = TaskGraph(f"random-{seed}")
    tracker = BlockTracker()
    for t in range(n_tasks):
        reads = tuple(rng.choice(n_blocks, size=rng.integers(0, 3), replace=False))
        writes = (int(rng.integers(0, n_blocks)),)
        tracker.add_task(
            graph,
            f"t{t}",
            TaskKind.S,
            Cost("gemm", flops=float(rng.integers(1, 100))),
            fn=make_fn(t, reads, writes),
            reads=reads,
            writes=writes,
        )
    return graph, state


@pytest.mark.parametrize("seed", range(8))
def test_fusing_random_graphs_preserves_races_and_results(seed):
    rng = np.random.default_rng(1000 + seed)
    cap = int(rng.choice([2, 3, 4, 8]))

    ref_graph, ref_state = _random_tracker_graph(seed)
    assert not _race_errors(ref_graph)
    ref_graph.run_sequential()

    fused_graph, fused_state = _random_tracker_graph(seed)
    fused = fuse_program(fused_graph, max_ops=cap).materialize()
    assert not _race_errors(fused)
    fused.run_sequential()
    assert np.array_equal(ref_state, fused_state)

    # The fused graph must also be schedule-independent: a threaded run
    # with real concurrency lands on the same bytes.
    thr_graph, thr_state = _random_tracker_graph(seed)
    ThreadedExecutor(3).run(fuse_program(thr_graph, max_ops=cap).materialize())
    assert np.array_equal(ref_state, thr_state)


# ----------------------------------------------------------------------
# Bitwise parity across backends
# ----------------------------------------------------------------------


class TestFusedDriverParity:
    A = np.random.default_rng(7).standard_normal((96, 48))

    def test_calu_fused_threaded_and_stealing_bitwise(self):
        ref = calu(self.A, b=16, tr=4, tree=TreeKind.BINARY)
        for make in (lambda: None, lambda: ThreadedExecutor(2), lambda: WorkStealingExecutor(3)):
            for cap in (2, 8):
                f = calu(self.A, b=16, tr=4, tree=TreeKind.BINARY, executor=make(), fuse=cap)
                assert np.array_equal(ref.lu, f.lu)
                assert np.array_equal(ref.piv, f.piv)

    def test_caqr_fused_threaded_and_stealing_bitwise(self):
        ref = caqr(self.A, b=16, tr=4, tree=TreeKind.FLAT)
        for make in (lambda: None, lambda: WorkStealingExecutor(3)):
            f = caqr(self.A, b=16, tr=4, tree=TreeKind.FLAT, executor=make(), fuse=8)
            assert np.array_equal(ref.packed, f.packed)
            assert np.array_equal(ref.R, f.R)
            for s_ref, s_f in zip(ref.panels, f.panels, strict=True):
                a, b_ = s_ref.to_arrays(), s_f.to_arrays()
                assert set(a) == set(b_)
                for k in a:
                    assert np.array_equal(a[k], b_[k])

    def test_tsqr_fused_bitwise(self):
        ref = tsqr(self.A, tr=4)
        f = tsqr(self.A, tr=4, fuse=8)
        assert np.array_equal(ref.R, f.R)

    @needs_fork
    def test_calu_fused_process_bitwise(self):
        ref = calu(self.A, b=16, tr=4, tree=TreeKind.BINARY)
        f = calu(self.A, b=16, tr=4, tree=TreeKind.BINARY, executor="process", fuse=8)
        assert np.array_equal(ref.lu, f.lu)
        assert np.array_equal(ref.piv, f.piv)

    @needs_fork
    def test_caqr_fused_process_bitwise(self):
        ref = caqr(self.A, b=16, tr=4, tree=TreeKind.FLAT)
        f = caqr(self.A, b=16, tr=4, tree=TreeKind.FLAT, executor="process", fuse=8)
        assert np.array_equal(ref.packed, f.packed)
        assert np.array_equal(ref.R, f.R)


# ----------------------------------------------------------------------
# Resilience at super-task granularity
# ----------------------------------------------------------------------


class TestFusedResilience:
    def test_journal_resume_skips_completed_super_tasks(self):
        A = np.random.default_rng(11).standard_normal((64, 32))
        ckpt = Checkpoint(MemoryStore())
        ref = calu(A, b=8, tr=4, tree=TreeKind.BINARY, checkpoint=ckpt, fuse=4)
        again = calu(A, b=8, tr=4, tree=TreeKind.BINARY, checkpoint=ckpt, fuse=4)
        assert np.array_equal(ref.lu, again.lu)
        assert np.array_equal(ref.piv, again.piv)
        resumes = [e for e in again.trace.events if e.kind == "resume"]
        assert resumes and resumes[0].value > 0  # super-tasks skipped by name
        # A resumed run re-executes only the unjournaled epilogue.
        assert len(again.trace.records) < len(ref.trace.records)


def _op_fuse_die_once(payload):
    counter = attach_array(payload["counter"])
    if counter[0] == 0:
        counter[0] = 1
        os._exit(3)
    counter[1] += 1.0


def _op_fuse_mark(payload):
    attach_array(payload["out"])[0] = 42.0


@pytest.fixture()
def _fuse_test_ops():
    extra = {"test_fuse_die_once": _op_fuse_die_once, "test_fuse_mark": _op_fuse_mark}
    ops.OPS.update(extra)
    yield
    for name in extra:
        ops.OPS.pop(name, None)


@needs_fork
def test_worker_death_retries_whole_super_task(_fuse_test_ops):
    """A death mid-batch re-dispatches the full descriptor list."""
    arena = SharedArena()
    try:
        counter = arena.alloc(2)
        out = arena.alloc(1)
        g = TaskGraph("fused-flaky")
        t0 = g.add(
            "t0",
            TaskKind.S,
            Cost("gemm", flops=1e3),
            idempotent=True,
            reads=frozenset(),
            writes=frozenset({("c", 0)}),
            op=("test_fuse_die_once", {"counter": arena.spec(counter)}),
        )
        g.add(
            "t1",
            TaskKind.S,
            Cost("gemm", flops=1e3),
            deps=[t0],
            idempotent=True,
            reads=frozenset({("c", 0)}),
            writes=frozenset({("o", 0)}),
            op=("test_fuse_mark", {"out": arena.spec(out)}),
        )
        fused = fuse_program(g, max_ops=2).materialize()
        assert len(fused.tasks) == 1 and fused.tasks[0].meta["fused"] == ("t0", "t1")
        assert fused.tasks[0].idempotent
        with ProcessExecutor(1, retry=RetryPolicy(max_retries=2, backoff_s=1e-4)) as ex:
            trace = ex.run(fused)
        assert trace.resilience_summary().get("retry") == 1
        # The retried batch re-ran from its first member: both ops landed.
        assert counter[1] == 1.0 and out[0] == 42.0
    finally:
        arena.destroy()
