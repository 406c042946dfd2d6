"""Tests for the LAPACK-style LU/QR baselines and their task graphs."""

import numpy as np

from repro.baselines.lapack_lu import build_getf2_graph, getrf_program, getrf_lu
from repro.baselines.lapack_qr import build_geqr2_graph, geqrf_program, geqrf_qr
from repro.runtime.task import TaskKind
from tests.conftest import assert_lu_ok, make_rng


class TestNumericDrivers:
    def test_getrf_lu(self):
        A0 = make_rng(3).standard_normal((80, 50))
        lu, piv = getrf_lu(A0, b=16)
        assert_lu_ok(A0, lu, piv)

    def test_geqrf_qr(self):
        A0 = make_rng(5).standard_normal((60, 30))
        packed, Ts = geqrf_qr(A0, b=10)
        R = np.triu(packed[:30])
        np.testing.assert_allclose(np.abs(R), np.abs(np.linalg.qr(A0)[1]), rtol=1e-9, atol=1e-11)
        assert len(Ts) == 3

    def test_inputs_preserved(self):
        A0 = make_rng(6).standard_normal((30, 30))
        A = A0.copy()
        getrf_lu(A)
        geqrf_qr(A)
        np.testing.assert_array_equal(A, A0)


class TestGraphs:
    def test_getf2_graph_single_task(self):
        g = build_getf2_graph(100000, 100)
        assert len(g) == 1
        assert g.tasks[0].kind is TaskKind.P
        assert g.tasks[0].cost.kernel == "getf2"

    def test_geqr2_graph_single_task(self):
        g = build_geqr2_graph(100000, 100)
        assert len(g) == 1

    def test_getrf_graph_valid(self):
        g = getrf_program(2000, 1000, b=100).materialize()
        g.validate()
        assert g.count_by_kind()["P"] == 10

    def test_getrf_fork_join_barriers(self):
        """With fork-join, panel K+1 depends on every task of iteration K."""
        g = getrf_program(600, 400, b=100, row_chunks=2, fork_join=True).materialize()
        panels = [t.tid for t in g.tasks if t.kind is TaskKind.P]
        for p in panels[1:]:
            K = g.tasks[p].iteration
            prev = [t.tid for t in g.tasks if t.iteration == K - 1 and t.tid != p]
            assert set(prev) <= set(g.preds[p])

    def test_getrf_no_fork_join_overlaps(self):
        g = getrf_program(600, 400, b=100, row_chunks=2, fork_join=False).materialize()
        panels = [t.tid for t in g.tasks if t.kind is TaskKind.P]
        p1 = panels[1]
        preds = set(g.preds[p1])
        all_iter0 = {t.tid for t in g.tasks if t.iteration == 0 and t.tid != p1}
        assert not all_iter0 <= preds  # only data deps, not a barrier

    def test_getrf_flops_match_formula(self):
        from repro.analysis.flops import lu_flops

        m, n = 3000, 1500
        g = getrf_program(m, n, b=100).materialize()
        base = lu_flops(m, n)
        assert 0.9 * base <= g.total_flops() <= 1.2 * base

    def test_geqrf_graph_valid_and_updates_full_height(self):
        g = geqrf_program(2000, 600, b=100).materialize()
        g.validate()
        s_tasks = [t for t in g.tasks if t.kind is TaskKind.S]
        # QR updates cannot be row-chunked: one task per trailing column.
        for t in s_tasks:
            assert t.cost.m >= 2000 - 600  # full active height

    def test_geqrf_flops_match_formula(self):
        from repro.analysis.flops import qr_flops

        m, n = 3000, 900
        g = geqrf_program(m, n, b=100).materialize()
        base = qr_flops(m, n)
        assert 0.9 * base <= g.total_flops() <= 2.5 * base

    def test_library_tag_propagates(self):
        g = getrf_program(500, 300, b=100, library="acml").materialize()
        assert all(t.cost.library == "acml" for t in g.tasks)
