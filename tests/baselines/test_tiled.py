"""Tests for the PLASMA-style tiled LU/QR baselines."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.errors import growth_factor
from repro.baselines.tiled_lu import tiled_lu_program, tiled_lu
from repro.baselines.tiled_qr import tiled_qr_program
from repro.runtime.task import TaskKind
from tests.conftest import make_rng


class TestTiledLU:
    @pytest.mark.parametrize("n,nb", [(64, 16), (120, 32), (96, 96), (130, 40), (200, 33)])
    def test_solve(self, n, nb):
        A0 = make_rng(n + nb).standard_normal((n, n))
        f = tiled_lu(A0, nb=nb)
        x0 = make_rng(1).standard_normal(n)
        x = f.solve(A0 @ x0)
        assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-9

    def test_multiple_rhs(self):
        A0 = make_rng(2).standard_normal((80, 80))
        f = tiled_lu(A0, nb=20)
        X0 = make_rng(3).standard_normal((80, 4))
        X = f.solve(A0 @ X0)
        assert np.linalg.norm(X - X0) < 1e-8

    def test_tall_matrix_forward_apply(self):
        A0 = make_rng(4).standard_normal((150, 60))
        f = tiled_lu(A0, nb=25)
        # U is upper trapezoidal; forward elimination zeroes below it.
        y = f.forward_apply(A0)
        np.testing.assert_allclose(np.tril(y[:60], -1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y[60:], 0.0, atol=1e-9)

    def test_wide_rejected(self):
        with pytest.raises(ValueError, match="m >= n"):
            tiled_lu(np.zeros((5, 9)))

    def test_solve_rejects_rectangular(self):
        f = tiled_lu(make_rng(5).standard_normal((60, 30)), nb=15)
        with pytest.raises(ValueError):
            f.solve(np.ones(60))

    def test_single_tile_equals_gepp(self):
        A0 = make_rng(6).standard_normal((40, 40))
        f = tiled_lu(A0, nb=40)
        lu_ref, piv_ref = scipy.linalg.lu_factor(A0)
        np.testing.assert_array_equal(f.piv[0], piv_ref)
        np.testing.assert_allclose(np.triu(f.packed), np.triu(lu_ref), rtol=1e-10, atol=1e-12)

    def test_growth_worse_than_gepp(self):
        """Incremental pivoting's growth increases with the tile count."""
        g_inc, g_ref = 0.0, 0.0
        for seed in range(4):
            A0 = make_rng(seed).standard_normal((192, 192))
            f = tiled_lu(A0, nb=16)  # many tiles
            g_inc += growth_factor(A0, f.U)
            _, _, U = scipy.linalg.lu(A0)
            g_ref += growth_factor(A0, U)
        assert g_inc > 1.2 * g_ref

    def test_input_preserved(self):
        A0 = make_rng(7).standard_normal((50, 50))
        A = A0.copy()
        tiled_lu(A, nb=25)
        np.testing.assert_array_equal(A, A0)


class TestTiledGraphs:
    def test_lu_graph_valid_and_task_count(self):
        Mt, Nt, nb = 6, 4, 100
        g = tiled_lu_program(Mt * nb, Nt * nb, nb=nb).materialize()
        g.validate()
        expected = sum(
            1 + (Nt - 1 - k) + (Mt - 1 - k) * (1 + (Nt - 1 - k)) for k in range(Nt)
        )
        assert len(g) == expected

    def test_qr_graph_valid_and_task_count(self):
        Mt, Nt, nb = 5, 3, 100
        g = tiled_qr_program(Mt * nb, Nt * nb, nb=nb).materialize()
        g.validate()
        expected = sum(
            1 + (Nt - 1 - k) + (Mt - 1 - k) * (1 + (Nt - 1 - k)) for k in range(Nt)
        )
        assert len(g) == expected

    def test_tstrf_chain_is_serial(self):
        """tstrf tasks down one tile column form a dependency chain."""
        g = tiled_lu_program(600, 200, nb=100).materialize()
        tstrfs = [t.tid for t in g.tasks if t.name.startswith("tstrf") and t.name.endswith(",0]")]
        order = {t: i for i, t in enumerate(g.topological_order())}
        # Transitively ordered: each next tstrf is reachable from the previous.
        for a, b in zip(tstrfs, tstrfs[1:]):
            assert order[a] < order[b]
            assert a in g.preds[b] or any(p >= a for p in g.preds[b])

    def test_lu_graph_flops_close_to_formula(self):
        from repro.analysis.flops import lu_flops

        m = n = 2000
        g = tiled_lu_program(m, n, nb=200).materialize()
        base = lu_flops(m, n)
        # Incremental pivoting does extra work updating U_kk and in ssssm.
        assert base * 0.9 <= g.total_flops() <= base * 2.6

    def test_qr_graph_flops(self):
        from repro.analysis.flops import qr_flops

        m = n = 2000
        g = tiled_qr_program(m, n, nb=200).materialize()
        base = qr_flops(m, n)
        assert base * 0.9 <= g.total_flops() <= base * 2.2

    def test_library_tag(self):
        g = tiled_lu_program(400, 400, nb=200, library="plasma").materialize()
        assert all(t.cost.library == "plasma" for t in g.tasks)


@given(st.integers(1, 6), st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_property_tiled_lu_solve(tiles, seed):
    rng = make_rng(seed)
    nb = int(rng.integers(4, 20))
    n = tiles * nb
    A0 = rng.standard_normal((n, n))
    f = tiled_lu(A0, nb=nb)
    x0 = rng.standard_normal(n)
    x = f.solve(A0 @ x0)
    assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-7
