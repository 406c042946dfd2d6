"""Tests for TaskGraph and block-level dependency discovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.task import Cost, TaskKind


def cost(flops=1.0):
    return Cost("gemm", 10, 10, 10, flops=flops)


class TestTaskGraph:
    def test_add_and_lookup(self):
        g = TaskGraph("t")
        a = g.add("a", TaskKind.P, cost())
        b = g.add("b", TaskKind.S, cost(), deps=[a])
        assert len(g) == 2
        assert g.preds[b] == [a]
        assert g.succs[a] == [b]

    def test_duplicate_deps_collapse(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.P, cost())
        b = g.add("b", TaskKind.S, cost(), deps=[a, a, a])
        assert g.preds[b] == [a]

    def test_out_of_range_dep_raises(self):
        g = TaskGraph()
        g.add("a", TaskKind.P, cost())
        with pytest.raises(ValueError, match="out of range"):
            g.add("b", TaskKind.S, cost(), deps=[5])

    def test_self_dep_raises(self):
        g = TaskGraph()
        g.add("a", TaskKind.P, cost())
        with pytest.raises(ValueError):
            g.add("b", TaskKind.S, cost(), deps=[1])

    def test_topological_order_respects_deps(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.P, cost())
        b = g.add("b", TaskKind.S, cost(), deps=[a])
        c = g.add("c", TaskKind.S, cost(), deps=[a])
        d = g.add("d", TaskKind.X, cost(), deps=[b, c])
        order = g.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        assert pos[a] < pos[b] < pos[d]
        assert pos[a] < pos[c] < pos[d]

    def test_validate_empty(self):
        TaskGraph().validate()

    def test_totals_and_kind_counts(self):
        g = TaskGraph()
        g.add("a", TaskKind.P, Cost("getf2", flops=10, words=3))
        g.add("b", TaskKind.S, Cost("gemm", flops=20, words=4))
        g.add("c", TaskKind.S, Cost("gemm", flops=30, words=5))
        assert g.total_flops() == 60
        assert g.total_words() == 12
        assert g.count_by_kind() == {"P": 1, "S": 2}

    def test_critical_path(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.P, cost(1))
        b = g.add("b", TaskKind.S, cost(10), deps=[a])
        c = g.add("c", TaskKind.S, cost(2), deps=[a])
        d = g.add("d", TaskKind.X, cost(1), deps=[b, c])
        length, path = g.critical_path(lambda t: t.cost.flops)
        assert length == 12
        assert path == [a, b, d]

    def test_critical_path_empty(self):
        assert TaskGraph().critical_path(lambda t: 1.0) == (0.0, [])

    def test_run_sequential_executes_in_dep_order(self):
        seen = []
        g = TaskGraph()
        a = g.add("a", TaskKind.P, cost(), fn=lambda: seen.append("a"))
        g.add("b", TaskKind.S, cost(), fn=lambda: seen.append("b"), deps=[a])
        g.run_sequential()
        assert seen == ["a", "b"]


class TestBlockTracker:
    def test_read_after_write(self):
        t = BlockTracker()
        g = TaskGraph()
        w = t.add_task(g, "w", TaskKind.P, cost(), writes=[(0, 0)])
        r = t.add_task(g, "r", TaskKind.S, cost(), reads=[(0, 0)])
        assert g.preds[r] == [w]

    def test_write_after_read(self):
        t = BlockTracker()
        g = TaskGraph()
        w = t.add_task(g, "w", TaskKind.P, cost(), writes=[(0, 0)])
        r1 = t.add_task(g, "r1", TaskKind.S, cost(), reads=[(0, 0)])
        r2 = t.add_task(g, "r2", TaskKind.S, cost(), reads=[(0, 0)])
        w2 = t.add_task(g, "w2", TaskKind.S, cost(), writes=[(0, 0)])
        assert set(g.preds[w2]) == {w, r1, r2}

    def test_write_after_write(self):
        t = BlockTracker()
        g = TaskGraph()
        w1 = t.add_task(g, "w1", TaskKind.P, cost(), writes=[(0, 0)])
        w2 = t.add_task(g, "w2", TaskKind.S, cost(), writes=[(0, 0)])
        assert g.preds[w2] == [w1]

    def test_reader_list_reset_after_write(self):
        t = BlockTracker()
        g = TaskGraph()
        t.add_task(g, "w", TaskKind.P, cost(), writes=[(0, 0)])
        t.add_task(g, "r", TaskKind.S, cost(), reads=[(0, 0)])
        w2 = t.add_task(g, "w2", TaskKind.S, cost(), writes=[(0, 0)])
        r2 = t.add_task(g, "r2", TaskKind.S, cost(), reads=[(0, 0)])
        # r2 depends only on the latest writer, not historical readers.
        assert g.preds[r2] == [w2]

    def test_independent_blocks_no_deps(self):
        t = BlockTracker()
        g = TaskGraph()
        t.add_task(g, "w1", TaskKind.P, cost(), writes=[(0, 0)])
        w2 = t.add_task(g, "w2", TaskKind.P, cost(), writes=[(1, 1)])
        assert g.preds[w2] == []

    def test_extra_deps_are_merged(self):
        t = BlockTracker()
        g = TaskGraph()
        a = t.add_task(g, "a", TaskKind.P, cost(), writes=[(0, 0)])
        b = t.add_task(g, "b", TaskKind.P, cost(), writes=[(1, 1)])
        c = t.add_task(g, "c", TaskKind.S, cost(), reads=[(0, 0)], extra_deps=[b])
        assert set(g.preds[c]) == {a, b}

    def test_symbolic_workspace_keys(self):
        t = BlockTracker()
        g = TaskGraph()
        p = t.add_task(g, "p", TaskKind.P, cost(), writes=[("V", 0, 1)])
        s = t.add_task(g, "s", TaskKind.S, cost(), reads=[("V", 0, 1)])
        assert g.preds[s] == [p]

    def test_read_and_write_same_block(self):
        t = BlockTracker()
        g = TaskGraph()
        a = t.add_task(g, "a", TaskKind.S, cost(), reads=[(0, 0)], writes=[(0, 0)])
        b = t.add_task(g, "b", TaskKind.S, cost(), reads=[(0, 0)], writes=[(0, 0)])
        assert g.preds[b] == [a]


BLOCKS = [(i, j) for i in range(3) for j in range(3)]
access_seqs = st.lists(
    st.tuples(*[st.frozensets(st.sampled_from(BLOCKS), max_size=4)] * 2), min_size=1, max_size=24
)


def tracked(seq):
    """The tracker's graph over *seq*, one ``(reads, writes)`` per task."""
    g = TaskGraph("prop")
    t = BlockTracker()
    for i, (reads, writes) in enumerate(seq):
        t.add_task(g, f"t{i}", TaskKind.X, Cost("laswp"), reads=sorted(reads), writes=sorted(writes))
    return g


def conflicts(a, b):
    (ra, wa), (rb, wb) = a, b
    return bool((wa & wb) or (wa & rb) or (ra & wb))


@settings(max_examples=200, deadline=None)
@given(access_seqs)
def test_tracker_orders_every_conflicting_pair(seq):
    """For any access sequence, every conflicting pair (RAW, WAR, WAW)
    is ordered in program order — against an O(n^2) oracle that
    enumerates all pairs directly."""
    g = tracked(seq)
    g.validate()
    reach = [set() for _ in seq]  # reach[u]: every task with a path from u
    for u in reversed(g.topological_order()):
        for v in g.succs[u]:
            reach[u] |= {v} | reach[v]
    for j in range(len(seq)):
        for i in range(j):
            if conflicts(seq[i], seq[j]):
                assert j in reach[i], f"conflicting pair {i} -> {j} unordered"


@settings(max_examples=200, deadline=None)
@given(access_seqs, st.randoms(use_true_random=False))
def test_property_tracker_serializes_conflicting_writes(seq, rnd):
    """Any schedule the graph allows replays program order: run in a
    random topological order, every read sees the writer it sees in
    program order, and every block ends with the same last writer."""
    g = tracked(seq)

    def replay(order):
        last, seen = {}, []
        for i in order:
            reads, writes = seq[i]
            seen.append((i, {b: last.get(b) for b in reads}))
            last.update(dict.fromkeys(writes, i))
        return sorted(seen), last

    indeg = [len(g.preds[i]) for i in range(len(seq))]
    ready, order = [i for i, d in enumerate(indeg) if d == 0], []
    while ready:
        u = ready.pop(rnd.randrange(len(ready)))
        order.append(u)
        for v in g.succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    assert replay(order) == replay(range(len(seq)))


@settings(max_examples=100, deadline=None)
@given(access_seqs)
def test_footprint_matches_declaration(seq):
    g = tracked(seq)
    assert len(g.tasks) == len(seq)
    for task, (reads, writes) in zip(g.tasks, seq, strict=True):
        assert task.has_footprint
        assert task.reads == reads and task.writes == writes


@settings(max_examples=100, deadline=None)
@given(access_seqs)
def test_no_spurious_order_between_disjoint_writers(seq):
    # Soundness in the other direction: two tasks with no conflict and
    # no transitive intermediary must not gain a *direct* edge.
    g = tracked(seq)
    for j in range(len(seq)):
        for i in g.preds[j]:
            assert conflicts(seq[i], seq[j]), f"edge {i} -> {j} without a conflict"


class TestFootprint:
    def test_footprint_accumulates(self):
        t = BlockTracker()
        g = TaskGraph()
        a = t.add_task(g, "a", TaskKind.S, cost(), reads=[(0, 0), (0, 0)], writes=[(1, 0)])
        b = t.add_task(g, "b", TaskKind.S, cost(), reads=[(1, 0)], writes=[(2, 0)])
        # The task is the one footprint store; each keeps its own sets.
        assert (g.tasks[a].reads, g.tasks[a].writes) == (frozenset({(0, 0)}), frozenset({(1, 0)}))
        assert (g.tasks[b].reads, g.tasks[b].writes) == (frozenset({(1, 0)}), frozenset({(2, 0)}))

    def test_footprint_merges_repeat_commits(self):
        # Two commits of one task id order later tasks after both.
        t = BlockTracker()
        t.commit(0, reads=[(0, 0)])
        t.commit(0, reads=[(0, 1)], writes=[(2, 2)])
        assert t.deps_for(writes=[(0, 0)]) == {0}
        assert t.deps_for(writes=[(0, 1)]) == {0}
        assert t.deps_for(reads=[(2, 2)]) == {0}
        assert t.deps_for(reads=[(0, 0), (0, 1)]) == set()

    def test_add_task_mirrors_footprint_into_meta(self):
        t = BlockTracker()
        g = TaskGraph()
        a = t.add_task(g, "a", TaskKind.S, cost(), reads=[(0, 0)], writes=[(1, 0)])
        task = g.tasks[a]
        assert task.reads == frozenset({(0, 0)})
        assert task.writes == frozenset({(1, 0)})
        assert task.has_footprint

    def test_graph_add_accepts_meta_footprint(self):
        # Builders with hand-wired deps (e.g. CALU's leftswaps) declare
        # their footprint directly through graph.add meta kwargs.
        g = TaskGraph()
        a = g.add(
            "a",
            TaskKind.X,
            cost(),
            reads=frozenset({(0, 0)}),
            writes=frozenset({(1, 0)}),
        )
        assert g.tasks[a].reads == frozenset({(0, 0)})
        assert g.tasks[a].writes == frozenset({(1, 0)})
        assert g.tasks[a].has_footprint

    def test_plain_task_has_no_footprint(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.S, cost())
        assert not g.tasks[a].has_footprint
        assert g.tasks[a].reads == frozenset()
        assert g.tasks[a].writes == frozenset()


class TestToDot:
    def test_escapes_quotes_and_backslashes(self):
        g = TaskGraph('g"ra\\ph')
        g.add('t "quoted" \\slash', TaskKind.P, cost())
        dot = g.to_dot()
        assert '"g\\"ra\\\\ph"' in dot
        assert 'label="t \\"quoted\\" \\\\slash"' in dot

    def test_deterministic_edge_order(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.P, cost())
        b = g.add("b", TaskKind.S, cost(), deps=[a])
        c = g.add("c", TaskKind.S, cost(), deps=[a])
        g.succs[a] = [c, b]  # scramble; to_dot must sort
        dot = g.to_dot()
        assert dot.index("t0 -> t1") < dot.index("t0 -> t2")

    def test_stable_across_calls(self):
        g = TaskGraph("same")
        a = g.add("a", TaskKind.P, cost())
        g.add("b", TaskKind.S, cost(), deps=[a])
        assert g.to_dot() == g.to_dot()

    def test_max_tasks_guard(self):
        g = TaskGraph()
        for i in range(5):
            g.add(f"t{i}", TaskKind.P, cost())
        with pytest.raises(ValueError, match="max_tasks"):
            g.to_dot(max_tasks=3)
