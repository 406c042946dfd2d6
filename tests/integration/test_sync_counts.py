"""Synchronization-count claims from the paper's Sections II-III.

The central communication argument: a TSLU/TSQR panel needs
``O(log2 Tr)`` synchronizations with a binary tree (one per level) and
``O(1)`` with a flat tree, versus one per *column* for classic partial
pivoting.  We verify it structurally (tree depth of the panel task
chain) and dynamically (sync events counted by the simulator).
"""

import math

from repro.core.calu import calu_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind, tree_height
from repro.runtime.task import TaskKind


def panel_depth(m: int, b: int, tr: int, tree: TreeKind) -> int:
    """Length of the longest P-task dependency chain of one panel."""
    graph = calu_program(BlockLayout(m, b, b), tr, tree)[0].materialize()
    depth = [0] * len(graph.tasks)
    for t in graph.topological_order():
        for s in graph.succs[t]:
            if graph.tasks[s].kind is TaskKind.P:
                depth[s] = max(depth[s], depth[t] + 1)
    return max(depth) + 1


def test_binary_tree_depth_is_log():
    for tr in (2, 4, 8, 16):
        d = panel_depth(6400, 100, tr, TreeKind.BINARY)
        # leaves + log2(tr) merge levels + finalize
        assert d == 2 + math.ceil(math.log2(tr))


def test_flat_tree_depth_constant():
    for tr in (2, 4, 8, 16):
        d = panel_depth(6400, 100, tr, TreeKind.FLAT)
        assert d == 3  # leaves + single merge + finalize


def test_tree_height_helper_matches():
    assert tree_height(8, TreeKind.BINARY) == 3
    assert tree_height(8, TreeKind.FLAT) == 1
    assert tree_height(8, TreeKind.HYBRID, arity=4) == 2


def test_classic_panel_would_need_b_synchronizations():
    """Column-by-column pivoting implies a chain of length b, far deeper
    than the tournament's log2(Tr) — the quantity CALU removes."""
    b, tr = 100, 8
    assert panel_depth(6400, b, tr, TreeKind.BINARY) < b / 4


def test_simulated_sync_events_scale_with_tree_height():
    """Per panel, the simulator charges ~one cross-core sync per level."""
    from repro.counters import counting
    from repro.machine.presets import generic
    from repro.runtime.simulated import SimulatedExecutor

    mach = generic(8)

    def syncs(tree: TreeKind) -> int:
        layout = BlockLayout(12800, 100, 100)
        graph = calu_program(layout, 8, tree)[0].materialize()
        with counting() as c:
            SimulatedExecutor(mach).run(graph)
        return c.syncs

    s_flat = syncs(TreeKind.FLAT)
    s_binary = syncs(TreeKind.BINARY)
    # The binary tree has 2 extra merge levels over flat at Tr=8.
    assert s_binary > s_flat


def test_calu_total_p_tasks_per_panel():
    """Tasks P per panel: Tr leaves + (merge nodes) + 1 finalize."""
    layout = BlockLayout(800, 100, 100)
    graph = calu_program(layout, 8, TreeKind.BINARY)[0].materialize()
    p_tasks = [t for t in graph.tasks if t.kind is TaskKind.P and t.iteration == 0]
    assert len(p_tasks) == 8 + 7 + 1


def test_words_counter_tracks_task_traffic():
    from repro.counters import counting
    from repro.machine.presets import generic
    from repro.runtime.simulated import SimulatedExecutor

    layout = BlockLayout(1600, 200, 100)
    graph = calu_program(layout, 4)[0].materialize()
    with counting() as c:
        SimulatedExecutor(generic(4)).run(graph)
    assert c.words > 0
