"""CLI end-to-end: the sanitize/fuzz sweep, self-test, and exit codes."""

from repro.core.trees import TreeKind
from repro.verify.cli import Target, default_targets, main, self_test, verify_graph


class TestVerifyGraph:
    def test_sanitize_and_fuzz_run(self):
        report = verify_graph(Target("lu", 24, 24, 8, 3, TreeKind.BINARY), fuzz_runs=1)
        assert report.passes == ["sanitize", "fuzz"]
        assert report.ok

    def test_misdeclared_footprint_fails_gate(self):
        class Lying(Target):
            def build(self):
                graph, collect = super().build()
                task = next(t for t in graph.tasks if t.fn is not None and (0, 0) in t.writes)
                task.meta["writes"] = task.writes - {(0, 0)}
                return graph, collect

        report = verify_graph(Lying("qr", 24, 24, 8, 3, TreeKind.FLAT), fuzz_runs=0)
        assert not report.ok
        assert [f.rule for f in report.findings] == ["footprint"]
        assert "FAIL" in report.summary()


class TestTargets:
    def test_matrix_covers_both_trees_and_two_sizes(self):
        names = [t.name for t in default_targets()]
        for algo in ("calu", "caqr"):
            for tree in ("binary", "flat"):
                sizes = [n for n in names if n.startswith(f"{algo}-{tree}-")]
                assert len(sizes) >= 2, names

    def test_numeric_targets_exist(self):
        assert len(default_targets()) == 8


class TestMain:
    def test_full_run_passes(self, capsys):
        assert main(["--fuzz", "1"]) == 0
        out = capsys.readouterr().out
        assert "all footprints honest" in out
        assert "lockcov: ok" in out

    def test_self_test_passes(self, capsys):
        assert self_test() == 0
        out = capsys.readouterr().out
        assert "misdeclared footprint" in out

    def test_self_test_via_flag(self, capsys):
        assert main(["--self-test"]) == 0
        out = capsys.readouterr().out
        assert "misdeclared footprint" in out
        assert "unlocked write detected" in out
