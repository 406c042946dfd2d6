"""Unit and property tests for the sequential LU kernels."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flops import lu_flops
from repro.counters import counting
from repro.kernels.lu import (
    getf2,
    getrf,
    lapack_getrf,
    perm_from_piv_rows,
    piv_to_perm,
    rgetf2,
)
from tests.conftest import assert_lu_ok, make_rng


@pytest.mark.parametrize("m,n", [(1, 1), (5, 5), (8, 3), (3, 8), (40, 17), (17, 40), (64, 64)])
def test_getf2_backward_error(m, n):
    A0 = make_rng(m * 100 + n).standard_normal((m, n))
    A = A0.copy()
    piv = getf2(A)
    assert_lu_ok(A0, A, piv, tol=1e-12)


def test_getf2_pivots_match_scipy():
    A0 = make_rng(1).standard_normal((20, 20))
    A = A0.copy()
    piv = getf2(A)
    lu_ref, piv_ref = scipy.linalg.lu_factor(A0)
    np.testing.assert_array_equal(piv, piv_ref)
    np.testing.assert_allclose(A, lu_ref, rtol=1e-12, atol=1e-14)


def test_getf2_multipliers_bounded():
    A = make_rng(2).standard_normal((50, 20))
    getf2(A)
    L = np.tril(A[:, :20], -1)
    assert np.abs(L).max() <= 1.0 + 1e-15


def test_getf2_singular_column_is_skipped():
    A = np.zeros((4, 4))
    A[:, 1] = [1.0, 2.0, 3.0, 4.0]
    piv = getf2(A.copy())
    assert len(piv) == 4  # no crash on exactly-zero pivots


@pytest.mark.parametrize("m,n,threshold", [(30, 30, 4), (64, 32, 8), (100, 64, 16), (33, 17, 2)])
def test_rgetf2_backward_error(m, n, threshold):
    A0 = make_rng(m + n).standard_normal((m, n))
    A = A0.copy()
    piv = rgetf2(A, threshold=threshold)
    assert_lu_ok(A0, A, piv, tol=1e-12)


def test_rgetf2_same_pivots_as_getf2():
    A0 = make_rng(3).standard_normal((48, 24))
    A1, A2 = A0.copy(), A0.copy()
    p1 = getf2(A1)
    p2 = rgetf2(A2, threshold=4)
    np.testing.assert_array_equal(piv_to_perm(p1, 48), piv_to_perm(p2, 48))
    np.testing.assert_allclose(A1, A2, rtol=1e-11, atol=1e-13)


def test_rgetf2_rejects_wide():
    with pytest.raises(ValueError, match="m >= n"):
        rgetf2(np.zeros((3, 5)))


GETRF_SHAPES = [(50, 50, 8), (64, 40, 16), (40, 64, 16), (30, 30, 30), (37, 29, 7)]


# The ids end in the panel kernel ``getrf`` runs, ``getf2``.
@pytest.mark.parametrize(
    "m,n,b", GETRF_SHAPES, ids=["{}-{}-{}-getf2".format(*s) for s in GETRF_SHAPES]
)
def test_getrf_backward_error(m, n, b):
    A0 = make_rng(m * n + b).standard_normal((m, n))
    A = A0.copy()
    piv = getrf(A, b=b)
    assert_lu_ok(A0, A, piv, tol=1e-12)


def test_getrf_matches_getf2_result():
    """Blocked and unblocked LU compute the same factorization."""
    A0 = make_rng(4).standard_normal((40, 40))
    A1, A2 = A0.copy(), A0.copy()
    p1 = getf2(A1)
    p2 = getrf(A2, b=8)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_allclose(A1, A2, rtol=1e-11, atol=1e-13)


def test_getf2_flop_count_square():
    n = 32
    A = make_rng(6).standard_normal((n, n))
    with counting() as c:
        getf2(A)
    expected = 2.0 * n**3 / 3.0
    assert abs(c.flops - expected) / expected < 0.15


def test_getf2_comparison_count():
    m, n = 30, 10
    A = make_rng(7).standard_normal((m, n))
    with counting() as c:
        getf2(A)
    assert c.comparisons == sum(m - j - 1 for j in range(n))


# ----------------------------------------------------------------------
# Pivot-sequence utilities (property-based)
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_piv_to_perm_is_permutation(data):
    m = data.draw(st.integers(1, 25))
    r = data.draw(st.integers(1, m))
    piv = np.array([data.draw(st.integers(i, m - 1)) for i in range(r)])
    perm = piv_to_perm(piv, m)
    assert sorted(perm) == list(range(m))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_piv_to_perm_matches_swap_application(data):
    m = data.draw(st.integers(1, 20))
    r = data.draw(st.integers(1, m))
    piv = np.array([data.draw(st.integers(i, m - 1)) for i in range(r)])
    x = np.arange(m)
    for i, p in enumerate(piv):
        x[[i, p]] = x[[p, i]]
    perm = piv_to_perm(piv, m)
    np.testing.assert_array_equal(np.arange(m)[perm], x)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_perm_from_piv_rows_places_rows(data):
    m = data.draw(st.integers(1, 25))
    r = data.draw(st.integers(1, m))
    rows = np.array(data.draw(st.permutations(range(m)))[:r])
    piv = perm_from_piv_rows(rows, m)
    x = np.arange(m)
    for i, p in enumerate(piv):
        x[[i, p]] = x[[p, i]]
    np.testing.assert_array_equal(x[:r], rows)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_perm_from_piv_rows_swaps_are_legal(data):
    """Every swap partner must be at or below the current position."""
    m = data.draw(st.integers(2, 20))
    r = data.draw(st.integers(1, m))
    rows = np.array(data.draw(st.permutations(range(m)))[:r])
    piv = perm_from_piv_rows(rows, m)
    assert all(piv[i] >= i for i in range(r))


# ----------------------------------------------------------------------
# LAPACK ?getrf, the tournament merges' kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m,n", [(1, 1), (64, 32), (48, 48), (17, 40), (3, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lapack_getrf_is_gepp_in_the_block_precision(m, n, dtype):
    A0 = make_rng(m * 100 + n).standard_normal((m, n)).astype(dtype)
    A = A0.copy()
    with counting() as c:
        piv = lapack_getrf(A)
    assert A.dtype == dtype and piv.dtype == np.int64 and len(piv) == min(m, n)
    assert c.kernel_calls == {"lapack_getrf": 1}
    assert c.flops == int(lu_flops(m, n))
    ref = A0.astype(np.float64)
    np.testing.assert_array_equal(piv, getf2(ref.copy()))
    assert_lu_ok(ref, A.astype(np.float64), piv, tol=100 * np.finfo(dtype).eps)


def test_lapack_getrf_leaves_a_singular_column_in_place():
    A = np.zeros((4, 4))
    A[:, 1] = [1.0, 2.0, 3.0, 4.0]
    np.testing.assert_array_equal(lapack_getrf(A.copy()), getf2(A.copy()))


# ----------------------------------------------------------------------
# The swap bookkeeping against the per-swap loops it replaced
# ----------------------------------------------------------------------
def _piv_to_perm_reference(piv, m):
    perm = np.arange(m, dtype=np.int64)
    for i in range(len(piv)):
        p = int(piv[i])
        if p != i:
            perm[[i, p]] = perm[[p, i]]
    return perm


def _perm_from_piv_rows_reference(rows, m):
    pos = np.arange(m, dtype=np.int64)
    loc = np.arange(m, dtype=np.int64)
    piv = np.empty(len(rows), dtype=np.int64)
    for i, r in enumerate(rows):
        p = int(pos[r])
        piv[i] = p
        if p != i:
            ri, rp = loc[i], loc[p]
            loc[i], loc[p] = rp, ri
            pos[ri], pos[rp] = p, i
    return piv


def _swap_cases(n_cases, seed):
    """``(rng, m, r, kind)`` draws: ``m = 1`` and ``r = 0`` included."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        m = 1 if case % 50 == 0 else int(rng.integers(1, 80))
        yield rng, m, int(rng.integers(0, m + 1)), case % 4


def test_piv_to_perm_matches_the_per_swap_loop():
    for rng, m, r, kind in _swap_cases(3000, 11):
        if kind == 0:  # no swaps
            piv = np.arange(r)
        elif kind == 1:  # repeated targets
            piv = np.full(r, rng.integers(0, m))
        elif kind == 2:  # LAPACK form: piv[i] >= i
            piv = np.array([rng.integers(i, m) for i in range(r)], dtype=np.int64)
        else:  # any target
            piv = rng.integers(0, m, size=r)
        np.testing.assert_array_equal(piv_to_perm(piv, m), _piv_to_perm_reference(piv, m))


def test_perm_from_piv_rows_matches_the_per_swap_loop():
    for rng, m, r, kind in _swap_cases(3000, 12):
        if kind == 0:  # no swaps
            rows = np.arange(r)
        elif kind == 1:  # repeated targets
            rows = rng.integers(0, m, size=r)
        else:  # a tournament's selection: distinct rows
            rows = rng.permutation(m)[:r]
        got = perm_from_piv_rows(rows, m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _perm_from_piv_rows_reference(rows, m))
