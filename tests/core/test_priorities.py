"""Tests for the look-ahead priority scheme."""

from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.priorities import task_priority
from repro.core.trees import TreeKind
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Cost, TaskKind


def test_panel_outranks_everything_in_its_iteration():
    K = 3
    p = task_priority("P", K)
    for kind in ("F", "L", "U", "S", "X"):
        assert p > task_priority(kind, K, J=K + 2)


def test_earlier_iterations_outrank_later():
    assert task_priority("S", 1, J=5) > task_priority("S", 2, J=5)
    assert task_priority("P", 0) > task_priority("P", 1)


def test_lookahead_1_boosts_next_column():
    """Updates of column K+1 outrank other updates of iteration K (paper)."""
    K = 2
    boosted = task_priority("S", K, J=K + 1, lookahead=1)
    plain = task_priority("S", K, J=K + 3, lookahead=1)
    assert boosted < task_priority("P", K)  # never above the current panel
    assert boosted > plain


def test_lookahead_1_next_panel_outranks_remaining_updates():
    """After col-(K+1) updates, panel K+1 runs before iteration-K leftovers."""
    K = 2
    next_panel = task_priority("P", K + 1, lookahead=1)
    leftover = task_priority("S", K, J=K + 4, lookahead=1)
    assert next_panel > leftover


def test_lookahead_0_no_column_boost():
    K = 2
    a = task_priority("S", K, J=K + 1, lookahead=0, n_cols=10)
    b = task_priority("S", K, J=K + 3, lookahead=0, n_cols=10)
    # No era boost: both sit in iteration K, mild left-first ordering only.
    assert abs(a - b) < 1.0
    assert a > b


def test_lookahead_infinite_orders_by_column():
    K = 0
    cols = [task_priority("S", K, J=j, lookahead=-1) for j in range(1, 6)]
    assert cols == sorted(cols, reverse=True)


def test_u_before_s_same_column():
    assert task_priority("U", 1, J=4) > task_priority("S", 1, J=4)


def test_finalize_between_p_and_l():
    assert task_priority("P", 2) > task_priority("F", 2) > task_priority("L", 2)


def window_inversions(graph):
    """Look-ahead window tasks outranked by later work: a U/S update of
    block column ``K+1`` emitted at iteration ``K`` (``meta["col"]``)
    must outrank every task of iteration ``K+2`` or later, or panel
    ``K+2`` work would run first and break the paper's schedule."""
    best = {}  # iteration -> highest priority of its tasks
    for t in graph.tasks:
        best[t.iteration] = max(best.get(t.iteration, t.priority), t.priority)
    later = {}  # iteration -> highest priority of it and every later one
    run = float("-inf")
    for it in range(max(best), -1, -1):
        run = max(run, best.get(it, run))
        later[it] = run
    return [
        t.name
        for t in graph.tasks
        if t.kind.value in ("U", "S")
        and t.meta.get("col") == t.iteration + 1
        and later.get(t.iteration + 2, float("-inf")) >= t.priority
    ]


def isolated_tasks(graph):
    """Tasks with neither predecessors nor successors in a multi-task graph."""
    return [t.name for t in graph.tasks if not graph.preds[t.tid] and not graph.succs[t.tid]]


def assert_clean_at_every_lookahead(program):
    """The builder's graphs keep the window first and leave no task isolated."""
    for lookahead in (0, 1, 2, -1):
        for tree in (TreeKind.BINARY, TreeKind.FLAT):
            graph = program(BlockLayout(48, 48, 8), 4, tree, lookahead=lookahead)[0].materialize()
            assert window_inversions(graph) == [], (lookahead, tree)
            assert isolated_tasks(graph) == [], (lookahead, tree)


def test_calu_all_lookaheads_clean():
    assert_clean_at_every_lookahead(calu_program)


def test_caqr_all_lookaheads_clean():
    assert_clean_at_every_lookahead(caqr_program)


def window_graph(window_priority, col=1):
    """A window candidate U[0] of column ``col`` ahead of iteration-2 work of priority 5."""
    g = TaskGraph()
    u = g.add(f"U[0]{col}", TaskKind.U, Cost("laswp"), priority=window_priority, iteration=0, col=col)
    g.add("far", TaskKind.S, Cost("laswp"), deps=[u], priority=5.0, iteration=2, col=9)
    return g


def test_window_inversion_is_caught():
    assert window_inversions(window_graph(1.0)) == ["U[0]1"]


def test_correct_lookahead_has_no_inversion():
    assert window_inversions(window_graph(10.0)) == []


def test_non_window_update_is_exempt():
    assert window_inversions(window_graph(1.0, col=5)) == []


def test_isolated_task_is_caught():
    g = TaskGraph()
    a = g.add("a", TaskKind.X, Cost("laswp"))
    g.add("b", TaskKind.X, Cost("laswp"), deps=[a])
    g.add("island", TaskKind.X, Cost("laswp"))
    assert isolated_tasks(g) == ["island"]
