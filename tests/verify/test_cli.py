"""CLI end-to-end: full pass matrix, self-test, and exit codes."""

from repro.verify.cli import default_targets, main, self_test, verify_graph
from repro.core.calu import calu_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.verify.mutate import drop_edge, pick_droppable_edge


class TestVerifyGraph:
    def test_static_passes_always_run(self):
        graph = calu_program(BlockLayout(24, 24, 8), 3, TreeKind.BINARY)[0].materialize()
        report = verify_graph(graph)
        assert report.passes == ["races", "lint"]
        assert report.ok

    def test_mutated_graph_fails_gate(self):
        graph = calu_program(BlockLayout(24, 24, 8), 3, TreeKind.BINARY)[0].materialize()
        u, v = pick_droppable_edge(graph, seed=0)
        report = verify_graph(drop_edge(graph, u, v))
        assert not report.ok
        assert any(f.rule == "race" for f in report.errors)
        assert "FAIL" in report.summary()


class TestTargets:
    def test_matrix_covers_both_trees_and_two_sizes(self):
        names = [t.name for t in default_targets()]
        for algo in ("calu", "caqr"):
            for tree in ("binary", "flat"):
                sizes = [n for n in names if n.startswith(f"{algo}-{tree}-")]
                assert len(sizes) >= 2, names

    def test_numeric_targets_exist(self):
        assert sum(t.numeric for t in default_targets()) >= 8


class TestMain:
    def test_full_run_passes(self, capsys):
        assert main(["--fuzz", "1"]) == 0
        out = capsys.readouterr().out
        assert "all graphs race-free and lint-clean" in out

    def test_static_only_passes(self, capsys):
        assert main(["--static-only"]) == 0
        out = capsys.readouterr().out
        assert "sanitize" not in out

    def test_self_test_passes(self, capsys):
        assert self_test(seed=0) == 0
        out = capsys.readouterr().out
        assert "edge-drop mutation" in out
        assert "misdeclared footprint" in out

    def test_self_test_via_flag(self):
        assert main(["--self-test"]) == 0
