"""Mutation self-test: the detector must catch injected defects."""

import numpy as np
import pytest

from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.verify.mutate import (
    conflict_edges,
    drop_edge,
    essential_conflict_edges,
    pick_droppable_edge,
)
from repro.verify.races import check_races


def calu_graph(tree=TreeKind.BINARY):
    graph = calu_program(BlockLayout(48, 48, 8), 4, tree)[0].materialize()
    return graph


class TestEdgeSelection:
    def test_conflict_edges_subset_of_edges(self):
        g = calu_graph()
        for u, v in conflict_edges(g):
            assert v in g.succs[u]

    def test_essential_edges_nonempty_for_calu(self):
        assert essential_conflict_edges(calu_graph())

    def test_drop_edge_returns_independent_copy(self):
        g = calu_graph()
        u, v = pick_droppable_edge(g, seed=0)
        mutant = drop_edge(g, u, v)
        assert v in g.succs[u] and u in g.preds[v]
        assert v not in mutant.succs[u] and u not in mutant.preds[v]

    def test_drop_missing_edge_raises(self):
        g = calu_graph()
        with pytest.raises(ValueError, match="no edge"):
            drop_edge(g, 0, 0)


class TestMutationDetected:
    @pytest.mark.parametrize("tree", [TreeKind.BINARY, TreeKind.FLAT])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_calu_random_edge_drop_is_caught(self, tree, seed):
        g = calu_graph(tree)
        assert not [f for f in check_races(g) if f.rule == "race"]
        u, v = pick_droppable_edge(g, seed=seed)
        mutant = drop_edge(g, u, v)
        races = [f for f in check_races(mutant) if f.rule == "race"]
        assert any(set(f.tasks) == {u, v} for f in races), (
            f"dropped conflict edge {u}->{v} not reported; got "
            f"{[f.tasks for f in races]}"
        )

    def test_caqr_edge_drop_is_caught(self):
        graph = caqr_program(BlockLayout(48, 48, 8), 4, TreeKind.BINARY)[0].materialize()
        u, v = pick_droppable_edge(graph, seed=0)
        races = [f for f in check_races(drop_edge(graph, u, v)) if f.rule == "race"]
        assert any(set(f.tasks) == {u, v} for f in races)

    def test_counterexample_is_actionable(self):
        g = calu_graph()
        u, v = pick_droppable_edge(g, seed=0)
        hit = next(
            f
            for f in check_races(drop_edge(g, u, v))
            if f.rule == "race" and set(f.tasks) == {u, v}
        )
        # Names both tasks, the block, and the missing edge.
        assert g.tasks[u].name in hit.message
        assert g.tasks[v].name in hit.message
        assert f"{min(u, v)} -> {max(u, v)}" in hit.message
        assert hit.block is not None

    def test_every_essential_edge_drop_is_caught(self):
        # Exhaustive on a small graph: no essential conflict edge can be
        # removed without the detector noticing.
        graph = calu_program(BlockLayout(24, 24, 8), 3, TreeKind.BINARY)[0].materialize()
        for u, v in essential_conflict_edges(graph):
            races = [f for f in check_races(drop_edge(graph, u, v)) if f.rule == "race"]
            assert any(set(f.tasks) == {u, v} for f in races), f"{u}->{v} missed"
