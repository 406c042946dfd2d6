"""Tests for the structured tree/tile kernels (tpqrt, tpmqrt, their
LAPACK ``?tpqrt`` / ``?tpmqrt`` wrappers, tstrf, ssssm)."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flops import tpmqrt_flops, tpqrt_tt_flops
from repro.counters import counting
from repro.kernels.structured import (
    lapack_tpmqrt,
    lapack_tpqrt,
    ssssm_apply,
    tpmqrt_left_t,
    tpqrt,
    tstrf,
)
from tests.conftest import make_rng


def explicit_q(Vb: np.ndarray, T: np.ndarray) -> np.ndarray:
    m, b = Vb.shape
    Vfull = np.vstack([np.eye(b), Vb])
    return np.eye(b + m) - Vfull @ T @ Vfull.T


class TestTpqrtDense:
    @pytest.mark.parametrize("b,m", [(1, 1), (4, 4), (6, 15), (8, 3), (10, 40)])
    def test_factorization(self, b, m):
        rng = make_rng(b * 100 + m)
        R0 = np.triu(rng.standard_normal((b, b)))
        B0 = rng.standard_normal((m, b))
        R, B = R0.copy(), B0.copy()
        T = tpqrt(R, B)
        Q = explicit_q(B, T)
        S0 = np.vstack([R0, B0])
        Rnew = np.vstack([np.triu(R), np.zeros((m, b))])
        np.testing.assert_allclose(Q @ Rnew, S0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Q.T @ Q, np.eye(b + m), atol=1e-12)

    def test_apply_matches_explicit(self):
        rng = make_rng(5)
        b, m, p = 5, 9, 4
        R = np.triu(rng.standard_normal((b, b)))
        B = rng.standard_normal((m, b))
        T = tpqrt(R, B)
        Q = explicit_q(B, T)
        Ct0, Cb0 = rng.standard_normal((b, p)), rng.standard_normal((m, p))
        Ct, Cb = Ct0.copy(), Cb0.copy()
        tpmqrt_left_t(B, T, Ct, Cb)
        ref = Q.T @ np.vstack([Ct0, Cb0])
        np.testing.assert_allclose(np.vstack([Ct, Cb]), ref, rtol=0, atol=1e-12)

    def test_apply_q_inverts_qt(self):
        rng = make_rng(6)
        b, m, p = 4, 7, 3
        R = np.triu(rng.standard_normal((b, b)))
        B = rng.standard_normal((m, b))
        T = tpqrt(R, B)
        Ct0, Cb0 = rng.standard_normal((b, p)), rng.standard_normal((m, p))
        Ct, Cb = Ct0.copy(), Cb0.copy()
        tpmqrt_left_t(B, T, Ct, Cb, transpose=True)
        tpmqrt_left_t(B, T, Ct, Cb, transpose=False)
        np.testing.assert_allclose(Ct, Ct0, atol=1e-12)
        np.testing.assert_allclose(Cb, Cb0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tpqrt(np.zeros((3, 4)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            tpmqrt_left_t(np.zeros((5, 3)), np.zeros((3, 3)), np.zeros((2, 4)), np.zeros((5, 4)))


class TestTpqrtTriangular:
    @pytest.mark.parametrize("b", [1, 2, 5, 8, 16])
    def test_merge_of_two_r_factors(self, b):
        rng = make_rng(b)
        R1 = np.triu(rng.standard_normal((b, b)))
        R2 = np.triu(rng.standard_normal((b, b)))
        Ra, Bb = R1.copy(), R2.copy()
        T = tpqrt(Ra, Bb, bottom_triangular=True)
        Q = explicit_q(np.triu(Bb), T)
        S0 = np.vstack([R1, R2])
        Rnew = np.vstack([np.triu(Ra), np.zeros((b, b))])
        np.testing.assert_allclose(Q @ Rnew, S0, rtol=0, atol=1e-12)

    def test_vb_stays_upper_triangular(self):
        rng = make_rng(77)
        b = 7
        Ra = np.triu(rng.standard_normal((b, b)))
        Bb = np.triu(rng.standard_normal((b, b)))
        tpqrt(Ra, Bb, bottom_triangular=True)
        assert np.abs(np.tril(Bb, -1)).max() == 0.0

    def test_insensitive_to_lower_triangle_garbage(self):
        """The in-place tree operates on views whose strictly-lower parts
        hold leaf Householder vectors; the kernel must not read them."""
        rng = make_rng(88)
        b = 6
        R1 = np.triu(rng.standard_normal((b, b)))
        R2 = np.triu(rng.standard_normal((b, b)))
        # Clean run
        Ra1, Bb1 = R1.copy(), R2.copy()
        T1 = tpqrt(Ra1, Bb1, bottom_triangular=True)
        # Contaminated run
        Ra2 = R1 + np.tril(rng.standard_normal((b, b)) * 50.0, -1)
        Bb2 = R2 + np.tril(rng.standard_normal((b, b)) * 50.0, -1)
        T2 = tpqrt(Ra2, Bb2, bottom_triangular=True)
        np.testing.assert_allclose(np.triu(Ra1), np.triu(Ra2), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(np.triu(Bb1), np.triu(Bb2), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(T1, T2, rtol=1e-11, atol=1e-12)

    def test_gram_preserved(self):
        rng = make_rng(9)
        b = 5
        R1 = np.triu(rng.standard_normal((b, b)))
        R2 = np.triu(rng.standard_normal((b, b)))
        Ra, Bb = R1.copy(), R2.copy()
        tpqrt(Ra, Bb, bottom_triangular=True)
        G0 = R1.T @ R1 + R2.T @ R2
        G1 = np.triu(Ra).T @ np.triu(Ra)
        np.testing.assert_allclose(G0, G1, rtol=1e-11, atol=1e-12)


def _r_pair(b: int, seed: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    rng = make_rng(seed)
    return (np.triu(rng.standard_normal((b, b))).astype(dtype) for _ in range(2))


class TestLapackTreeKernels:
    """The vendor merge and node update against the NumPy ones."""

    @pytest.mark.parametrize("b", [32, 16, 7, 1])
    def test_merge_matches_numpy(self, b):
        R1, R2 = _r_pair(b, 100 + b)
        Rn, Bn = R1.copy(), R2.copy()
        Tn = tpqrt(Rn, Bn, bottom_triangular=True)
        Rl, Bl = R1.copy(), R2.copy()
        Tl = lapack_tpqrt(Rl, Bl)
        scale = max(np.abs(R1).max(), np.abs(R2).max())
        np.testing.assert_allclose(np.triu(Rl), np.triu(Rn), rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(np.triu(Bl), np.triu(Bn), rtol=0, atol=1e-12)
        np.testing.assert_allclose(Tl, Tn, rtol=0, atol=1e-12)
        Q = explicit_q(np.triu(Bl), Tl)
        Rnew = np.vstack([np.triu(Rl), np.zeros((b, b))])
        np.testing.assert_allclose(Q @ Rnew, np.vstack([R1, R2]), rtol=0, atol=1e-12 * scale)

    def test_float32_stays_float32(self):
        R, B = _r_pair(16, 5, np.float32)
        Rn, Bn = R.copy(), B.copy()
        Tn = tpqrt(Rn, Bn, bottom_triangular=True)
        T = lapack_tpqrt(R, B)
        assert R.dtype == B.dtype == T.dtype == np.float32
        np.testing.assert_allclose(T, Tn, rtol=0, atol=1e-4)
        rng = make_rng(6)
        Ct, Cb = (rng.standard_normal((16, 5)).astype(np.float32) for _ in range(2))
        lapack_tpmqrt(np.triu(B), T, Ct, Cb)
        assert Ct.dtype == Cb.dtype == np.float32

    def test_strictly_lower_storage_comes_back_bit_for_bit(self):
        """Below both diagonals the tree's in-place views hold the
        leaves' ``V`` (the only copy, on a streamed panel): the merge
        must neither read nor write there."""
        b = 9
        R1, R2 = _r_pair(b, 7)
        Rc, Bc = R1.copy(), R2.copy()
        Tc = lapack_tpqrt(Rc, Bc)
        lower = np.tri(b, k=-1, dtype=bool)
        sentinels = np.full((b, b), np.nan)
        sentinels.view(np.uint64)[...] += np.arange(b * b, dtype=np.uint64).reshape(b, b)
        R, B = np.where(lower, sentinels, R1), np.where(lower, -sentinels, R2)
        R_in, B_in = R.copy(), B.copy()
        T = lapack_tpqrt(R, B)
        for got, was in ((R, R_in), (B, B_in)):
            assert np.array_equal(got.view(np.uint64)[lower], was.view(np.uint64)[lower])
        np.testing.assert_array_equal(T, Tc)
        np.testing.assert_array_equal(np.triu(R), np.triu(Rc))
        np.testing.assert_array_equal(np.triu(B), np.triu(Bc))

    @pytest.mark.parametrize(
        "merge",
        [lapack_tpqrt, partial(tpqrt, bottom_triangular=True)],
        ids=["lapack_tpqrt", "tpqrt"],
    )
    def test_update_applies_the_same_qt_as_numpy(self, merge):
        b, n = 12, 7
        R1, R2 = _r_pair(b, 11)
        Vb = R2.copy()
        T = merge(R1.copy(), Vb)
        Vb = np.triu(Vb)
        rng = make_rng(12)
        Ct0, Cb0 = rng.standard_normal((b, n)), rng.standard_normal((b, n))
        Ctn, Cbn = Ct0.copy(), Cb0.copy()
        tpmqrt_left_t(Vb, T, Ctn, Cbn)
        Ctl, Cbl = Ct0.copy(), Cb0.copy()
        lapack_tpmqrt(Vb, T, Ctl, Cbl)
        np.testing.assert_allclose(Ctl, Ctn, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Cbl, Cbn, rtol=0, atol=1e-12)

    def test_one_call_of_the_closed_form_flops(self):
        b, n = 8, 5
        R, B = _r_pair(b, 3)
        with counting() as c:
            T = lapack_tpqrt(R, B)
            lapack_tpmqrt(np.triu(B), T, np.ones((b, n)), np.ones((b, n)))
        assert c.kernel_calls == {"lapack_tpqrt": 1, "lapack_tpmqrt": 1}
        assert c.flops == int(tpqrt_tt_flops(b)) + int(tpmqrt_flops(b, n, b))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lapack_tpqrt(np.zeros((3, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            lapack_tpmqrt(np.eye(3), np.eye(3), np.zeros((3, 2)), np.zeros((4, 2)))


class TestTstrf:
    @pytest.mark.parametrize("b,m", [(1, 1), (4, 4), (6, 12), (8, 5)])
    def test_replay_reproduces_elimination(self, b, m):
        rng = make_rng(b * 7 + m)
        U0 = np.triu(rng.standard_normal((b, b)))
        A0 = rng.standard_normal((m, b))
        U, A = U0.copy(), A0.copy()
        ops = tstrf(U, A)
        Ct, Cb = U0.copy(), A0.copy()
        ssssm_apply(ops, Ct, Cb)
        np.testing.assert_allclose(np.triu(Ct), np.triu(U), atol=1e-11)
        np.testing.assert_allclose(Cb, 0.0, atol=1e-11)

    def test_pivot_is_local_max(self):
        rng = make_rng(11)
        b, m = 5, 8
        U0 = np.triu(rng.standard_normal((b, b)))
        A0 = rng.standard_normal((m, b)) * 100.0  # force pivots from A
        U, A = U0.copy(), A0.copy()
        ops = tstrf(U, A)
        assert (ops.swaps >= 0).all()  # every step swapped

    def test_no_swap_when_diag_dominates(self):
        rng = make_rng(12)
        b, m = 4, 6
        U0 = np.triu(rng.standard_normal((b, b))) + 1000.0 * np.eye(b)
        A0 = rng.standard_normal((m, b))
        U, A = U0.copy(), A0.copy()
        ops = tstrf(U, A)
        assert (ops.swaps == -1).all()
        # Without swaps this is a plain elimination: U unchanged on top rows.
        np.testing.assert_allclose(np.triu(U), np.triu(U0), rtol=1e-12)

    def test_solve_via_replay(self):
        """tstrf + ssssm solve a stacked system correctly."""
        rng = make_rng(13)
        b, m = 6, 6
        U0 = np.triu(rng.standard_normal((b, b)))
        A0 = rng.standard_normal((m, b))
        S = np.vstack([U0, A0])  # (b+m) x b stacked matrix
        U, A = U0.copy(), A0.copy()
        ops = tstrf(U, A)
        # Residual check through the Gram identity is not available for LU;
        # instead verify the elimination maps S onto [triu(U); 0].
        Ct, Cb = U0.copy(), A0.copy()
        ssssm_apply(ops, Ct, Cb)
        assert np.abs(Cb).max() < 1e-11

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tstrf(np.zeros((3, 4)), np.zeros((5, 4)))
        ops = tstrf(np.eye(3), np.ones((2, 3)))
        with pytest.raises(ValueError):
            ssssm_apply(ops, np.zeros((4, 2)), np.zeros((2, 2)))


@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_property_tpqrt_orthogonal(b, m, seed):
    rng = make_rng(seed)
    R = np.triu(rng.standard_normal((b, b)))
    B = rng.standard_normal((m, b))
    T = tpqrt(R, B)
    Q = explicit_q(B, T)
    np.testing.assert_allclose(Q.T @ Q, np.eye(b + m), atol=1e-11)


@given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_property_tstrf_replay_zeroes_bottom(b, m, seed):
    rng = make_rng(seed)
    U0 = np.triu(rng.standard_normal((b, b)))
    A0 = rng.standard_normal((m, b))
    ops = tstrf(U0.copy(), A0.copy())
    Ct, Cb = U0.copy(), A0.copy()
    ssssm_apply(ops, Ct, Cb)
    assert np.abs(Cb).max() < 1e-9
