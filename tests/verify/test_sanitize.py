"""Dynamic passes: footprint sanitizer and schedule fuzzer."""

import numpy as np
import pytest

from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Cost, TaskKind
from repro.verify.sanitize import (
    fuzz_schedules,
    random_topological_order,
    sanitize_footprints,
)


def _writer(A, i, j, b=4):
    def fn():
        A[i * b : (i + 1) * b, j * b : (j + 1) * b] += 1.0

    return fn


class TestSanitizeFootprints:
    def test_honest_footprint_clean(self):
        A = np.zeros((8, 8))
        g = TaskGraph()
        g.add("w", TaskKind.X, Cost("laswp"), fn=_writer(A, 0, 1), writes=frozenset({(0, 1)}))
        assert sanitize_footprints(g, A, 4) == []

    def test_undeclared_write_flagged(self):
        A = np.zeros((8, 8))
        g = TaskGraph()
        g.add("rogue", TaskKind.X, Cost("laswp"), fn=_writer(A, 1, 0), writes=frozenset({(0, 1)}))
        findings = sanitize_footprints(g, A, 4)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "footprint" and f.severity == "error"
        assert f.block == (1, 0)

    def test_nan_to_nan_not_a_write(self):
        A = np.zeros((8, 8))
        A[0, 0] = np.nan

        g = TaskGraph()
        g.add("idle", TaskKind.X, Cost("laswp"), fn=lambda: None, writes=frozenset())
        assert sanitize_footprints(g, A, 4) == []

    def test_symbolic_tasks_skipped(self):
        A = np.zeros((8, 8))
        g = TaskGraph()
        g.add("sym", TaskKind.X, Cost("laswp"))
        assert sanitize_footprints(g, A, 4) == []

    def test_calu_graph_clean_and_factors_intact(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((24, 24))
        A0 = A.copy()
        layout = BlockLayout(24, 24, 8)
        program, wss = calu_program(layout, 3, TreeKind.BINARY, A=A, guards=False)
        graph = program.materialize()
        assert sanitize_footprints(graph, A, 8) == []
        # The sanitizer executed the graph in topological order; the
        # factorization must be the same as a plain sequential run.
        B = A0.copy()
        graph2 = calu_program(layout, 3, TreeKind.BINARY, A=B, guards=False)[0].materialize()
        graph2.run_sequential()
        np.testing.assert_array_equal(A, B)


class TestRandomTopologicalOrder:
    def test_valid_linear_extension(self):
        graph = calu_program(BlockLayout(24, 24, 8), 3, TreeKind.BINARY)[0].materialize()
        rng = np.random.default_rng(0)
        order = random_topological_order(graph, rng)
        assert sorted(order) == list(range(len(graph.tasks)))
        pos = {t: i for i, t in enumerate(order)}
        for v in range(len(graph.tasks)):
            assert all(pos[p] < pos[v] for p in graph.preds[v])

    def test_seeds_vary_order(self):
        graph = calu_program(BlockLayout(24, 24, 8), 3, TreeKind.BINARY)[0].materialize()
        a = random_topological_order(graph, np.random.default_rng(1))
        b = random_topological_order(graph, np.random.default_rng(2))
        assert a != b


class TestFuzzSchedules:
    @pytest.mark.parametrize("tree", [TreeKind.BINARY, TreeKind.FLAT])
    def test_calu_bitwise_schedule_independent(self, tree):
        def build():
            A = np.random.default_rng(11).standard_normal((24, 24))
            program, wss = calu_program(
                BlockLayout(24, 24, 8), 3, tree, A=A, guards=False
            )
            graph = program.materialize()

            def collect():
                out = [A]
                out += [np.asarray(ws.piv) for ws in wss if ws.piv is not None]
                return out

            return graph, collect

        assert fuzz_schedules(build, runs=3, seed=5) == []

    def test_caqr_bitwise_schedule_independent(self):
        def build():
            A = np.random.default_rng(13).standard_normal((24, 16))
            graph = caqr_program(
                BlockLayout(24, 16, 8), 3, TreeKind.BINARY, A=A, guards=False
            )[0].materialize()
            return graph, lambda: [A]

        assert fuzz_schedules(build, runs=3, seed=5) == []

    def test_schedule_dependence_detected(self):
        # A deliberately racy program: two unordered tasks append to a
        # log; the result depends on which runs first.
        def build():
            out = np.zeros(2)
            state = {"next": 0.0}
            g = TaskGraph("racy")

            def writer(val):
                def fn():
                    out[int(state["next"])] = val
                    state["next"] += 1

                return fn

            g.add("a", TaskKind.X, Cost("laswp"), fn=writer(1.0))
            g.add("b", TaskKind.X, Cost("laswp"), fn=writer(2.0))
            return g, lambda: [out]

        findings = fuzz_schedules(build, runs=8, seed=0)
        assert findings
        assert all(f.rule == "schedule-dependence" for f in findings)
