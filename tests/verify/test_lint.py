"""DAG linter rules: cycles, costs, dead tasks, priorities, redundancy."""

from repro.analysis.flops import gemm_flops
from repro.core.calu import calu_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Cost, TaskKind
from repro.verify.lint import expected_flops, lint_graph


def rules(findings):
    return [f.rule for f in findings]


def gemm_cost(m=8, n=8, k=8, flops=None, words=100.0):
    return Cost("gemm", m, n, k, flops=gemm_flops(m, n, k) if flops is None else flops, words=words)


class TestCycleRule:
    def test_cycle_short_circuits(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.X, Cost("laswp"))
        b = g.add("b", TaskKind.X, Cost("laswp"), deps=[a])
        g.succs[b].append(a)
        g.preds[a].append(b)
        findings = lint_graph(g)
        assert rules(findings) == ["cycle"]
        assert findings[0].severity == "error"
        assert sorted(findings[0].tasks) == [a, b]


class TestCostRules:
    def test_consistent_cost_clean(self):
        g = TaskGraph()
        g.add("ok", TaskKind.S, gemm_cost())
        assert lint_graph(g) == []

    def test_wrong_flops_flagged(self):
        g = TaskGraph()
        g.add("bad", TaskKind.S, gemm_cost(flops=999.0))
        findings = lint_graph(g)
        assert rules(findings) == ["cost-flops"]
        assert "gemm" in findings[0].message

    def test_bookkeeping_kernel_must_be_zero_flop(self):
        g = TaskGraph()
        g.add("swap", TaskKind.X, Cost("laswp", flops=10.0, words=1.0))
        assert rules(lint_graph(g)) == ["cost-flops"]

    def test_flops_without_words_warned(self):
        g = TaskGraph()
        g.add("dry", TaskKind.S, gemm_cost(words=0.0))
        findings = lint_graph(g)
        assert rules(findings) == ["cost-words"]
        assert findings[0].severity == "warning"

    def test_unknown_kernel_skipped(self):
        g = TaskGraph()
        g.add("mystery", TaskKind.X, Cost("frobnicate", flops=123.0, words=1.0))
        assert lint_graph(g) == []

    def test_multiple_ok_kernels_accept_batches(self):
        from repro.analysis.flops import tpqrt_tt_flops

        g = TaskGraph()
        unit = tpqrt_tt_flops(8)
        g.add("merge", TaskKind.P, Cost("tpqrt_tt", 16, 8, 8, flops=unit * 3, words=1.0))
        assert lint_graph(g) == []
        g2 = TaskGraph()
        g2.add("merge", TaskKind.P, Cost("tpqrt_tt", 16, 8, 8, flops=unit * 1.5, words=1.0))
        assert rules(lint_graph(g2)) == ["cost-flops"]

    def test_expected_flops_lookup(self):
        assert expected_flops(_task(gemm_cost())) == gemm_flops(8, 8, 8)


def _task(cost):
    g = TaskGraph()
    g.add("t", TaskKind.S, cost)
    return g.tasks[0]


class TestStructureRules:
    def test_isolated_task_warned(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.X, Cost("laswp"))
        g.add("b", TaskKind.X, Cost("laswp"), deps=[a])
        g.add("island", TaskKind.X, Cost("laswp"))
        findings = lint_graph(g)
        assert rules(findings) == ["isolated-task"]

    def test_single_task_graph_not_isolated(self):
        g = TaskGraph()
        g.add("only", TaskKind.X, Cost("laswp"))
        assert lint_graph(g) == []

    def test_redundant_edge_is_info(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.X, Cost("laswp"))
        b = g.add("b", TaskKind.X, Cost("laswp"), deps=[a])
        c = g.add("c", TaskKind.X, Cost("laswp"), deps=[a, b])
        findings = lint_graph(g)
        assert rules(findings) == ["redundant-edge"]
        assert findings[0].severity == "info"
        assert findings[0].tasks == (a, c)
        assert lint_graph(g, redundant_edges=False) == []


class TestPriorityInversion:
    def test_window_task_outranked_warned(self):
        g = TaskGraph()
        u = g.add("U[0]1", TaskKind.U, Cost("laswp"), priority=1.0, iteration=0, col=1)
        g.add("far", TaskKind.S, Cost("laswp"), deps=[u], priority=5.0, iteration=2, col=9)
        findings = lint_graph(g)
        assert rules(findings) == ["priority-inversion"]
        assert findings[0].severity == "warning"

    def test_correct_lookahead_clean(self):
        g = TaskGraph()
        u = g.add("U[0]1", TaskKind.U, Cost("laswp"), priority=10.0, iteration=0, col=1)
        g.add("far", TaskKind.S, Cost("laswp"), deps=[u], priority=5.0, iteration=2, col=9)
        assert lint_graph(g) == []

    def test_non_window_updates_exempt(self):
        g = TaskGraph()
        u = g.add("U[0]5", TaskKind.U, Cost("laswp"), priority=1.0, iteration=0, col=5)
        g.add("far", TaskKind.S, Cost("laswp"), deps=[u], priority=5.0, iteration=2, col=9)
        assert lint_graph(g) == []


class TestBuilderGraphsClean:
    def test_calu_all_lookaheads_gate_clean(self):
        for lookahead in (-1, 0, 1):
            g = calu_program(
                BlockLayout(48, 48, 8), 4, TreeKind.BINARY, lookahead=lookahead
            )[0].materialize()
            gating = [f for f in lint_graph(g) if f.severity in ("error", "warning")]
            assert gating == [], [str(f) for f in gating]
