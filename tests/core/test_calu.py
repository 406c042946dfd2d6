"""Tests for multithreaded CALU (Algorithm 1)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.errors import growth_factor, lu_backward_error
from repro.core.calu import CALUFactorization, calu_program, calu
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.runtime.task import TaskKind
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import make_rng

SHAPES = [
    (64, 64, 16, 4, TreeKind.BINARY),
    (120, 120, 32, 4, TreeKind.BINARY),
    (200, 80, 25, 4, TreeKind.FLAT),
    (97, 53, 16, 3, TreeKind.BINARY),
    (64, 100, 16, 2, TreeKind.BINARY),  # wide
    (300, 40, 10, 8, TreeKind.HYBRID),
    (50, 50, 50, 4, TreeKind.BINARY),  # single panel
    (130, 130, 33, 5, TreeKind.FLAT),  # ragged blocks
]


@pytest.mark.parametrize("m,n,b,tr,tree", SHAPES)
def test_reconstruct(m, n, b, tr, tree):
    A0 = make_rng(m + n + b + tr).standard_normal((m, n))
    f = calu(A0, b=b, tr=tr, tree=tree)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-12


def test_backward_error_metric():
    A0 = make_rng(0).standard_normal((80, 80))
    f = calu(A0, b=16, tr=4)
    assert lu_backward_error(A0, f.perm, f.L, f.U) < 1e-13


def test_solve_square():
    A0 = make_rng(1).standard_normal((100, 100))
    x0 = make_rng(2).standard_normal(100)
    f = calu(A0, b=25, tr=4)
    x = f.solve(A0 @ x0)
    assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-10


def test_solve_multiple_rhs():
    A0 = make_rng(3).standard_normal((60, 60))
    X0 = make_rng(4).standard_normal((60, 3))
    f = calu(A0, b=20, tr=2)
    X = f.solve(A0 @ X0)
    assert np.linalg.norm(X - X0) < 1e-9


def test_solve_rejects_rectangular():
    f = calu(make_rng(5).standard_normal((40, 20)), b=10, tr=2)
    with pytest.raises(ValueError):
        f.solve(np.ones(40))


def test_equivalent_to_gepp_when_single_panel_tr1():
    """b = n and Tr = 1 reduces CALU to plain GEPP."""
    A0 = make_rng(6).standard_normal((50, 50))
    f = calu(A0, b=50, tr=1)
    lu_ref, piv_ref = scipy.linalg.lu_factor(A0)
    np.testing.assert_array_equal(f.piv, piv_ref)
    np.testing.assert_allclose(f.lu, lu_ref, rtol=1e-10, atol=1e-12)


def test_growth_factor_comparable_to_gepp():
    gs = []
    for seed in range(4):
        A0 = make_rng(seed).standard_normal((192, 192))
        f = calu(A0, b=32, tr=8)
        gs.append(growth_factor(A0, f.U))
    _, _, U = scipy.linalg.lu(make_rng(0).standard_normal((192, 192)))
    g_ref = growth_factor(make_rng(0).standard_normal((192, 192)), U)
    assert max(gs) < 10 * g_ref  # same order as GEPP, per the paper


def test_default_block_size_is_paper_value():
    A0 = make_rng(7).standard_normal((150, 150))
    f = calu(A0, tr=2)
    assert f.b == 100
    A0 = make_rng(7).standard_normal((150, 40))
    assert calu(A0, tr=2).b == 40


def test_overwrite():
    """calu has no in-place mode: the input is copied to the working
    buffer, left as it was, and shares no memory with the factors."""
    A0 = make_rng(8).standard_normal((60, 60))
    A = A0.copy()
    with pytest.raises(TypeError):
        calu(A, b=20, tr=2, overwrite=True)
    f = calu(A, b=20, tr=2)
    np.testing.assert_array_equal(A, A0)
    assert not np.shares_memory(f.lu, A)


def test_executors_agree():
    """Threaded and sequential execution give identical factors."""
    A0 = make_rng(9).standard_normal((90, 90))
    f1 = calu(A0, b=30, tr=3, executor=ThreadedExecutor(3))
    f2 = calu(A0, b=30, tr=3, executor=ThreadedExecutor(1))
    np.testing.assert_array_equal(f1.piv, f2.piv)
    np.testing.assert_allclose(f1.lu, f2.lu, rtol=0, atol=0)


def test_lookahead_variants_same_result():
    A0 = make_rng(10).standard_normal((80, 80))
    fs = [calu(A0, b=20, tr=2, lookahead=la) for la in (0, 1, -1)]
    for f in fs[1:]:
        np.testing.assert_array_equal(fs[0].piv, f.piv)
        np.testing.assert_allclose(fs[0].lu, f.lu, atol=0)


def test_perm_property_roundtrip():
    A0 = make_rng(11).standard_normal((70, 30))
    f = calu(A0, b=10, tr=2)
    perm = f.perm
    assert sorted(perm) == list(range(70))
    np.testing.assert_allclose(A0[perm], f.L @ f.U, rtol=0, atol=1e-11)


def test_ill_conditioned_still_accurate():
    from repro.bench.workloads import ill_conditioned

    A0 = ill_conditioned(80, 80, cond=1e12, seed=3)
    f = calu(A0, b=16, tr=4)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-12


class TestGraphStructure:
    def test_task_kind_counts(self):
        """Task counts per iteration follow Algorithm 1's structure."""
        layout = BlockLayout(400, 200, 100)  # M=4, N=2
        tr = 2
        graph = calu_program(layout, tr, TreeKind.BINARY)[0].materialize()
        counts = graph.count_by_kind()
        # Per iteration: tr leaves + (tr-1) merges + 1 finalize = 2+1+1 = 4 P's
        # (iteration 1 has fewer chunks if fewer block rows remain).
        assert counts["P"] >= 4
        assert counts["U"] == 1  # only iteration 0 has a trailing column
        assert counts["S"] >= 1
        assert counts["X"] == 1  # the deferred left swaps

    def test_single_panel_has_no_left_swaps(self):
        layout = BlockLayout(300, 100, 100)
        graph = calu_program(layout, 2)[0].materialize()
        assert "X" not in graph.count_by_kind()

    def test_graph_is_acyclic(self):
        layout = BlockLayout(500, 300, 100)
        graph = calu_program(layout, 4)[0].materialize()
        graph.validate()

    def test_symbolic_graph_has_no_closures(self):
        layout = BlockLayout(500, 300, 100)
        graph = calu_program(layout, 4)[0].materialize()
        assert all(t.fn is None for t in graph.tasks)

    def test_symbolic_and_numeric_graphs_identical_structure(self):
        layout = BlockLayout(200, 120, 40)
        g_sym = calu_program(layout, 3)[0].materialize()
        A = make_rng(12).standard_normal((200, 120))
        g_num = calu_program(layout, 3, A=A)[0].materialize()
        assert len(g_sym) == len(g_num)
        for ts, tn in zip(g_sym.tasks, g_num.tasks):
            assert ts.name == tn.name
            assert ts.cost == tn.cost
        assert g_sym.preds == g_num.preds

    def test_total_flops_close_to_formula(self):
        from repro.analysis.flops import lu_flops

        layout = BlockLayout(2000, 1000, 100)
        graph = calu_program(layout, 4)[0].materialize()
        base = lu_flops(2000, 1000)
        # CALU does the panel work roughly twice plus tree merges.
        assert base <= graph.total_flops() <= 1.6 * base

    def test_panel_flops_on_critical_path(self):
        """Every panel P task precedes the next iteration's P tasks."""
        layout = BlockLayout(300, 300, 100)
        graph = calu_program(layout, 2)[0].materialize()
        order = {t: i for i, t in enumerate(graph.topological_order())}
        p_by_iter: dict[int, list[int]] = {}
        for t in graph.tasks:
            if t.kind is TaskKind.P:
                p_by_iter.setdefault(t.iteration, []).append(t.tid)
        # Weak check: at least one P of iter K precedes all P of iter K+1 in topo order.
        for k in range(2):
            assert min(order[t] for t in p_by_iter[k]) < min(order[t] for t in p_by_iter[k + 1])


@given(st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_property_calu_random_shapes(seed):
    rng = make_rng(seed)
    m = int(rng.integers(2, 120))
    n = int(rng.integers(2, 120))
    b = int(rng.integers(1, min(m, n) + 1))
    tr = int(rng.integers(1, 7))
    A0 = rng.standard_normal((m, n))
    f = calu(A0, b=b, tr=tr)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-10, (m, n, b, tr, err)
