"""Unit and property tests for the Householder QR kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counters import counting
from repro.kernels.qr import (
    extract_v,
    geqr2,
    geqr3,
    geqrf,
    larfb_left_t,
    larfg,
    larft,
)
from tests.conftest import assert_qr_ok, make_rng


def reconstruct_q(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    m = V.shape[0]
    return np.eye(m) - V @ T @ V.T


class TestLarfg:
    def test_annihilates_tail(self, rng):
        x0 = rng.standard_normal(8)
        x = x0.copy()
        tau = larfg(x)
        v = x.copy()
        beta = v[0]
        v[0] = 1.0
        H = np.eye(8) - tau * np.outer(v, v)
        y = H @ x0
        assert abs(y[0] - beta) < 1e-13
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-13)

    def test_reflector_norm_preserving(self, rng):
        x0 = rng.standard_normal(5)
        x = x0.copy()
        larfg(x)
        assert abs(abs(x[0]) - np.linalg.norm(x0)) < 1e-13

    def test_zero_tail_gives_tau_zero(self):
        x = np.array([3.0, 0.0, 0.0])
        tau = larfg(x)
        assert tau == 0.0
        assert x[0] == 3.0

    def test_length_one(self):
        x = np.array([2.0])
        assert larfg(x) == 0.0

    def test_sign_avoids_cancellation(self):
        # beta must have the opposite sign of alpha.
        x = np.array([1.0, 1.0])
        larfg(x)
        assert x[0] < 0.0
        x = np.array([-1.0, 1.0])
        larfg(x)
        assert x[0] > 0.0


class TestGeqr2:
    @pytest.mark.parametrize("m,n", [(1, 1), (5, 5), (10, 4), (4, 10), (30, 13)])
    def test_backward_error(self, m, n):
        A0 = make_rng(m * 31 + n).standard_normal((m, n))
        A = A0.copy()
        tau = geqr2(A)
        r = min(m, n)
        V = extract_v(A)
        T = larft(V, tau)
        Q = reconstruct_q(V, T)
        R = np.zeros((m, n))
        R[:r] = np.triu(A[:n])
        np.testing.assert_allclose(Q @ R, A0, rtol=0, atol=1e-12)

    def test_r_matches_numpy_abs(self):
        A0 = make_rng(8).standard_normal((20, 6))
        A = A0.copy()
        geqr2(A)
        R = np.triu(A[:6])
        _, R_ref = np.linalg.qr(A0)
        np.testing.assert_allclose(np.abs(R), np.abs(R_ref), rtol=1e-10, atol=1e-12)

    def test_zero_matrix(self):
        A = np.zeros((5, 3))
        tau = geqr2(A)
        np.testing.assert_array_equal(tau, 0.0)
        np.testing.assert_array_equal(A, 0.0)


def _extract_v_reference(panel: np.ndarray) -> np.ndarray:
    """``np.tril`` over the whole block: what :func:`extract_v` computed
    before it copied once and masked only the ``k x k`` head."""
    V = np.tril(panel[:, : min(panel.shape)], -1)
    np.fill_diagonal(V, 1.0)
    return V


@pytest.mark.parametrize("shape", [(40, 8), (8, 8), (5, 9), (1, 3), (7, 1), (0, 4)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_extract_v_is_bitwise_the_tril_reference(shape, dtype, order):
    """Same bits as the reference for every input, non-finite and
    signed zeros included, in every position of the block."""
    rng = make_rng(sum(shape))
    big = rng.standard_normal((2 * shape[0] + 1, 2 * shape[1] + 1)).astype(dtype)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype)
    big.flat[rng.integers(0, big.size, big.size // 3)] = rng.choice(specials, big.size // 3)
    panel = {
        "C": np.ascontiguousarray(big[: shape[0], : shape[1]]),
        "F": np.asfortranarray(big[: shape[0], : shape[1]]),
        "strided": big[: 2 * shape[0] : 2, 1 : 2 * shape[1] + 1 : 2],
    }[order]
    got, want = extract_v(panel), _extract_v_reference(panel)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLarfbAndT:
    def test_larfb_equals_explicit_q(self, rng):
        m, k, n = 15, 5, 7
        A = rng.standard_normal((m, k))
        tau = geqr2(A)
        V = extract_v(A)
        T = larft(V, tau)
        Q = reconstruct_q(V, T)
        C0 = rng.standard_normal((m, n))
        C = C0.copy()
        larfb_left_t(V, T, C)
        np.testing.assert_allclose(C, Q.T @ C0, rtol=0, atol=1e-12)

    def test_apply_wy_roundtrip(self, rng):
        m, k = 12, 4
        panel = rng.standard_normal((m, k))
        tau = geqr2(panel)
        V = extract_v(panel)
        T = larft(V, tau)
        C0 = rng.standard_normal((m, 3))
        C = C0.copy()
        larfb_left_t(V, T, C)
        np.testing.assert_allclose(reconstruct_q(V, T) @ C, C0, rtol=0, atol=1e-12)

    def test_larfb_shape_mismatch(self):
        with pytest.raises(ValueError):
            larfb_left_t(np.zeros((5, 2)), np.zeros((2, 2)), np.zeros((4, 3)))

    def test_t_is_upper_triangular(self, rng):
        A = rng.standard_normal((10, 6))
        tau = geqr2(A)
        T = larft(extract_v(A), tau)
        np.testing.assert_allclose(T, np.triu(T))


class TestGeqr3:
    @pytest.mark.parametrize("m,n,threshold", [(20, 20, 2), (40, 16, 4), (33, 15, 8), (9, 9, 1)])
    def test_backward_error(self, m, n, threshold):
        A0 = make_rng(m + 7 * n).standard_normal((m, n))
        A = A0.copy()
        T = geqr3(A, threshold=threshold)
        V = extract_v(A)
        Q = reconstruct_q(V, T)[:, :n]
        R = np.triu(A[:n])
        assert_qr_ok(A0, Q, R, tol=1e-12)

    def test_same_r_as_geqr2(self):
        A0 = make_rng(9).standard_normal((30, 12))
        A1, A2 = A0.copy(), A0.copy()
        geqr2(A1)
        geqr3(A2, threshold=3)
        np.testing.assert_allclose(np.triu(A1[:12]), np.triu(A2[:12]), rtol=1e-10, atol=1e-12)

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="m >= n"):
            geqr3(np.zeros((3, 5)))


GEQRF_SHAPES = [(30, 30, 8), (50, 20, 6), (20, 35, 10), (25, 25, 25)]


class TestGeqrf:
    # The ids end in the panel kernel ``geqrf`` runs, ``geqr2``.
    @pytest.mark.parametrize(
        "m,n,b", GEQRF_SHAPES, ids=["{}-{}-{}-geqr2".format(*s) for s in GEQRF_SHAPES]
    )
    def test_backward_error(self, m, n, b):
        A0 = make_rng(m * 3 + n + b).standard_normal((m, n))
        A = A0.copy()
        Ts = geqrf(A, b=b)
        r = min(m, n)
        # Rebuild Q by applying panel reflectors to the identity, last first.
        Q = np.eye(m)
        ks = list(range(0, r, b))
        for idx in range(len(ks) - 1, -1, -1):
            k = ks[idx]
            bk = min(b, r - k)
            V = extract_v(A[k:, k : k + bk])
            T = Ts[idx]
            Q[k:, :] -= V @ (T @ (V.T @ Q[k:, :]))
        R = np.triu(A)
        np.testing.assert_allclose(Q @ R, A0, rtol=0, atol=1e-11)

    def test_flop_count_tall(self):
        m, n = 200, 40
        A = make_rng(10).standard_normal((m, n))
        with counting() as c:
            geqrf(A, b=16)
        expected = 2.0 * m * n * n - 2.0 * n**3 / 3.0
        # Blocked QR does up to ~2x extra work in larfb vs the minimal count.
        assert expected <= c.flops <= 3.0 * expected


@given(st.integers(2, 30), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_property_geqr2_orthogonality(m, seed):
    n = max(1, m // 2)
    A0 = make_rng(seed).standard_normal((m, n))
    A = A0.copy()
    tau = geqr2(A)
    V = extract_v(A)
    T = larft(V, tau)
    Q = reconstruct_q(V, T)
    np.testing.assert_allclose(Q.T @ Q, np.eye(m), atol=1e-11)


@given(st.integers(1, 12), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_property_r_diagonal_dominates_column_norm(n, seed):
    """|R[j,j]| equals the norm of the j-th column of Q^T-transformed A projected out."""
    m = n + 5
    A0 = make_rng(seed).standard_normal((m, n))
    A = A0.copy()
    geqr2(A)
    R = np.triu(A[:n])
    # First diagonal entry is the first column's norm up to sign.
    assert abs(abs(R[0, 0]) - np.linalg.norm(A0[:, 0])) < 1e-10
