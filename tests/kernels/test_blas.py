"""Unit tests for the flop-counted BLAS layer."""

import numpy as np
import pytest

from repro.counters import counting
from repro.kernels.blas import blas_trsm, gemm, ger, laswp, scal_axpy_col, trsm_llnu, trsm_runn


class TestGemm:
    def test_matches_numpy_default(self, rng):
        A = rng.standard_normal((7, 5))
        B = rng.standard_normal((5, 9))
        C0 = rng.standard_normal((7, 9))
        C = C0.copy()
        gemm(C, A, B)
        np.testing.assert_allclose(C, C0 - A @ B, rtol=1e-14)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (-1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (1.5, -0.5)])
    def test_alpha_beta(self, rng, alpha, beta):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((3, 6))
        C0 = rng.standard_normal((4, 6))
        C = C0.copy()
        gemm(C, A, B, alpha=alpha, beta=beta)
        np.testing.assert_allclose(C, beta * C0 + alpha * (A @ B), rtol=1e-13, atol=1e-13)

    def test_beta_zero_ignores_poisoned_c(self, rng):
        # LAPACK semantics: beta=0 means C's previous contents are not
        # referenced.  A NaN-poisoned C must not leak into the product
        # (0 * NaN = NaN would, if implemented as C *= beta).
        A = rng.standard_normal((5, 4))
        B = rng.standard_normal((4, 6))
        C = np.full((5, 6), np.nan)
        gemm(C, A, B, alpha=2.0, beta=0.0)
        assert np.all(np.isfinite(C))
        np.testing.assert_allclose(C, 2.0 * (A @ B), rtol=1e-14)

    def test_beta_zero_with_inf_poisoned_c(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        C = np.full((3, 3), np.inf)
        gemm(C, A, B, alpha=-1.0, beta=0.0)
        np.testing.assert_allclose(C, -(A @ B), rtol=1e-14)

    def test_in_place_returns_same_array(self, rng):
        C = rng.standard_normal((3, 3))
        out = gemm(C, np.eye(3), np.eye(3))
        assert out is C

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="gemm shape mismatch"):
            gemm(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_flop_count(self, rng):
        m, n, k = 11, 7, 5
        with counting() as c:
            gemm(np.zeros((m, n)), np.zeros((m, k)), np.zeros((k, n)))
        assert c.flops == 2 * m * n * k
        assert c.kernel_calls["gemm"] == 1


class TestTrsm:
    def test_llnu_solves_unit_lower(self, rng):
        k, n = 8, 5
        L = np.tril(rng.standard_normal((k, k)), -1) + np.eye(k)
        B0 = rng.standard_normal((k, n))
        B = B0.copy()
        trsm_llnu(L, B)
        np.testing.assert_allclose(L @ B, B0, rtol=1e-12, atol=1e-12)

    def test_llnu_ignores_upper_and_diag_values(self, rng):
        # The solve must read only the strictly-lower triangle.
        k, n = 6, 4
        L = np.tril(rng.standard_normal((k, k)), -1)
        noisy = L + np.triu(rng.standard_normal((k, k)) * 100.0)
        B0 = rng.standard_normal((k, n))
        B1, B2 = B0.copy(), B0.copy()
        trsm_llnu(L + np.eye(k), B1)
        trsm_llnu(noisy, B2)
        np.testing.assert_allclose(B1, B2, rtol=1e-14)

    def test_runn_solves_upper_right(self, rng):
        m, k = 9, 6
        U = np.triu(rng.standard_normal((k, k))) + 5.0 * np.eye(k)
        B0 = rng.standard_normal((m, k))
        B = B0.copy()
        trsm_runn(U, B)
        np.testing.assert_allclose(B @ U, B0, rtol=1e-12, atol=1e-12)

    def test_runn_ignores_lower_values(self, rng):
        m, k = 5, 4
        U = np.triu(rng.standard_normal((k, k))) + 4.0 * np.eye(k)
        noisy = U + np.tril(rng.standard_normal((k, k)) * 100.0, -1)
        B0 = rng.standard_normal((m, k))
        B1, B2 = B0.copy(), B0.copy()
        trsm_runn(U, B1)
        trsm_runn(noisy, B2)
        np.testing.assert_allclose(B1, B2, rtol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trsm_llnu(np.zeros((3, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            trsm_runn(np.zeros((3, 3)), np.zeros((4, 2)))

    def test_flop_counts(self):
        k, n, m = 6, 4, 7
        with counting() as c:
            trsm_llnu(np.eye(k), np.ones((k, n)))
        assert c.flops == k * (k - 1) * n
        with counting() as c:
            trsm_runn(np.eye(k), np.ones((m, k)))
        assert c.flops == m * k * k


#: ``blas_trsm``'s two forms, with the NumPy twin each replaces in CALU's tasks.
TWINS = {
    "runn": (trsm_runn, dict(left=False, lower=False, unit=False)),
    "llnu": (trsm_llnu, dict(left=True, lower=True, unit=True)),
}


class TestBlasTrsm:
    """``?trsm`` against its NumPy twin: the same solve in the block's
    precision, reading the same triangle of a packed LU block, counted
    as one ``blas_trsm`` call of the twin's flops."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("form", TWINS)
    def test_matches_the_numpy_twin_on_packed_blocks(self, rng, form, dtype):
        twin, flags = TWINS[form]
        k = 12
        # A packed, well-conditioned LU block inside a larger row-major
        # matrix, and a strided right-hand side beside it, as the ops slice them.
        W = rng.standard_normal((40, 40)).astype(dtype)
        W[:k, :k] += 8 * np.eye(k, dtype=dtype)
        T = W[:k, :k]
        B = W[:k, k : k + 9] if flags["left"] else W[k : k + 20, :k]
        X_ref = B.copy()
        twin(T, X_ref)
        with counting() as c:
            blas_trsm(T, B, **flags)
        with counting() as c_ref:
            twin(T, B.copy())
        assert B.dtype == dtype
        np.testing.assert_allclose(B, X_ref, rtol=0, atol=50 * np.finfo(dtype).eps * np.abs(X_ref).max())
        assert c.kernel_calls == {"blas_trsm": 1}
        assert c.flops == c_ref.flops

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            blas_trsm(np.eye(3), np.zeros((4, 2)), left=True, lower=True, unit=True)
        with pytest.raises(ValueError):
            blas_trsm(np.eye(3), np.zeros((4, 2)), left=False, lower=False, unit=False)


class TestGer:
    def test_rank1_update(self, rng):
        A0 = rng.standard_normal((6, 4))
        x = rng.standard_normal(6)
        y = rng.standard_normal(4)
        A = A0.copy()
        ger(A, x, y)
        np.testing.assert_allclose(A, A0 - np.outer(x, y), rtol=1e-14)

    def test_alpha(self, rng):
        A0 = rng.standard_normal((3, 3))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        A = A0.copy()
        ger(A, x, y, alpha=0.25)
        np.testing.assert_allclose(A, A0 + 0.25 * np.outer(x, y), rtol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ger(np.zeros((3, 3)), np.zeros(2), np.zeros(3))


class TestScalAxpyCol:
    def test_eliminates_column(self, rng):
        A = rng.standard_normal((6, 6))
        A[0, 0] = 2.0
        ref = A.copy()
        scal_axpy_col(A, 0)
        np.testing.assert_allclose(A[1:, 0], ref[1:, 0] / 2.0)
        np.testing.assert_allclose(
            A[1:, 1:], ref[1:, 1:] - np.outer(ref[1:, 0] / 2.0, ref[0, 1:]), rtol=1e-13
        )

    def test_zero_pivot_raises(self):
        A = np.zeros((3, 3))
        with pytest.raises(ZeroDivisionError):
            scal_axpy_col(A, 0)


class TestLaswp:
    def test_forward_matches_manual(self, rng):
        A0 = rng.standard_normal((6, 3))
        piv = np.array([3, 1, 5])
        A = A0.copy()
        laswp(A, piv)
        ref = A0.copy()
        for i, p in enumerate(piv):
            ref[[i, p]] = ref[[p, i]]
        np.testing.assert_array_equal(A, ref)

    def test_backward_undoes_forward(self, rng):
        A0 = rng.standard_normal((8, 4))
        piv = np.array([5, 3, 2, 7])
        A = A0.copy()
        laswp(A, piv, forward=True)
        laswp(A, piv, forward=False)
        np.testing.assert_array_equal(A, A0)

    def test_identity_swaps_are_noop(self, rng):
        A0 = rng.standard_normal((4, 2))
        A = A0.copy()
        laswp(A, np.arange(4))
        np.testing.assert_array_equal(A, A0)

    def test_words_counted_only_for_real_swaps(self):
        A = np.arange(12.0).reshape(6, 2)
        with counting() as c:
            laswp(A, np.array([0, 1, 5]))  # one real swap
        assert c.words == 2 * 2

    def test_out_of_range_pivot_raises(self, rng):
        # A corrupted pivot must fail loudly, not wrap around via
        # negative indexing or raise a bare IndexError past the end.
        A = rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match=r"corrupted pivot piv\[1\] = 7"):
            laswp(A, np.array([0, 7, 2]))

    def test_negative_pivot_raises(self, rng):
        A0 = rng.standard_normal((4, 3))
        A = A0.copy()
        with pytest.raises(ValueError, match=r"corrupted pivot piv\[0\] = -2"):
            laswp(A, np.array([-2, 1]))
        # The offending swap was rejected before touching any rows.
        np.testing.assert_array_equal(A, A0)

    def test_backward_checks_bounds_too(self, rng):
        A = rng.standard_normal((5, 2))
        with pytest.raises(ValueError, match="corrupted pivot"):
            laswp(A, np.array([1, 9]), forward=False)
