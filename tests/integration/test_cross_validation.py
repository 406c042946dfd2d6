"""Cross-validation of the full stack against SciPy/NumPy references."""

import numpy as np
import pytest
import scipy.linalg

from repro.baselines.tiled_lu import tiled_lu
from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from tests.conftest import make_rng


@pytest.mark.parametrize("seed", range(5))
def test_calu_solution_matches_scipy_solve(seed):
    rng = make_rng(seed)
    n = int(rng.integers(30, 150))
    A = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    f = calu(A, b=max(4, n // 5), tr=4)
    x = f.solve(rhs)
    x_ref = scipy.linalg.solve(A, rhs)
    np.testing.assert_allclose(x, x_ref, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_caqr_ls_matches_numpy_lstsq(seed):
    rng = make_rng(seed + 100)
    m = int(rng.integers(80, 250))
    n = int(rng.integers(10, 60))
    A = rng.standard_normal((m, n))
    rhs = rng.standard_normal(m)
    f = caqr(A, b=max(4, n // 3), tr=4)
    x = f.solve_ls(rhs)
    x_ref = np.linalg.lstsq(A, rhs, rcond=None)[0]
    np.testing.assert_allclose(x, x_ref, rtol=1e-7, atol=1e-9)


def test_all_lu_variants_agree_on_solution():
    rng = make_rng(7)
    n = 96
    A = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    x_ref = scipy.linalg.solve(A, rhs)
    x_calu = calu(A, b=24, tr=4).solve(rhs)
    x_tiled = tiled_lu(A, nb=24).solve(rhs)
    np.testing.assert_allclose(x_calu, x_ref, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(x_tiled, x_ref, rtol=1e-8, atol=1e-10)


def test_all_qr_variants_same_r_up_to_signs():
    rng = make_rng(8)
    A = rng.standard_normal((120, 48))
    r_ref = np.abs(np.linalg.qr(A)[1])
    for f in (
        tsqr(A, tr=4, tree=TreeKind.BINARY),
        caqr(A, b=16, tr=4),
    ):
        np.testing.assert_allclose(np.abs(np.asarray(f.R)[:48, :48]), r_ref, rtol=1e-7, atol=1e-9)


def test_tslu_pivot_quality_vs_gepp():
    """Tournament pivots give a residual within a small factor of GEPP's."""
    rng = make_rng(10)
    A = rng.standard_normal((400, 40))
    lu_t, piv_t = tslu(A, tr=8)
    from repro.kernels.lu import piv_to_perm

    perm = piv_to_perm(piv_t, 400)
    L = np.tril(lu_t[:, :40], -1)
    np.fill_diagonal(L, 1.0)
    U = np.triu(lu_t[:40])
    err_t = np.linalg.norm(A[perm] - L @ U) / np.linalg.norm(A)
    assert err_t < 1e-13


def test_repeated_factorizations_are_deterministic():
    A0 = make_rng(11).standard_normal((100, 60))
    f1 = calu(A0, b=20, tr=4)
    f2 = calu(A0, b=20, tr=4)
    assert np.array_equal(f1.lu, f2.lu)
    q1 = caqr(A0, b=20, tr=4)
    q2 = caqr(A0, b=20, tr=4)
    assert np.array_equal(q1.packed, q2.packed)


def test_iterative_refinement_with_calu():
    """CALU factors support classic iterative refinement to full accuracy."""
    rng = make_rng(12)
    n = 128
    A = rng.standard_normal((n, n))
    x_true = rng.standard_normal(n)
    rhs = A @ x_true
    f = calu(A, b=32, tr=4)
    x = f.solve(rhs)
    for _ in range(2):
        r = rhs - A @ x
        x = x + f.solve(r)
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-13
