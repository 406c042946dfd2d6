"""Tests for TSLU — tournament-pivoting panel factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.kernels.lu import getf2, piv_to_perm
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import assert_lu_ok, make_rng


@pytest.mark.parametrize("tree", list(TreeKind))
@pytest.mark.parametrize("m,n,tr", [(64, 8, 4), (200, 20, 4), (333, 10, 7), (100, 30, 1), (50, 50, 4)])
def test_backward_error(m, n, tr, tree):
    A0 = make_rng(m * 7 + n + tr).standard_normal((m, n))
    lu, piv = tslu(A0, tr=tr, tree=tree)
    assert_lu_ok(A0, lu, piv, tol=1e-12)


def test_tr1_equals_gepp():
    """Paper: 'when b = 1 or Tr = 1, CALU is equivalent to partial pivoting'."""
    A0 = make_rng(1).standard_normal((150, 12))
    lu, piv = tslu(A0, tr=1)
    ref = A0.copy()
    piv_ref = getf2(ref)
    np.testing.assert_array_equal(piv_to_perm(piv, 150), piv_to_perm(piv_ref, 150))
    np.testing.assert_allclose(lu, ref, rtol=1e-11, atol=1e-13)


def test_pivot_rows_are_original_rows():
    """The tournament must select b *rows of A*, not linear combinations."""
    A0 = make_rng(2).standard_normal((120, 10))
    lu, piv = tslu(A0, tr=4)
    perm = piv_to_perm(piv, 120)
    # The first 10 rows after pivoting factor the pivot block exactly:
    # reconstruct and compare against the original pivot rows.
    L = np.tril(lu[:10, :10], -1) + np.eye(10)
    U = np.triu(lu[:10, :10])
    np.testing.assert_allclose(L @ U, A0[perm[:10], :10], rtol=1e-10, atol=1e-12)


def test_multiplier_growth_modest():
    """|L| stays small on random matrices (the paper's stability claim)."""
    worst = 0.0
    for seed in range(5):
        A0 = make_rng(seed).standard_normal((256, 32))
        lu, piv = tslu(A0, tr=8)
        L = np.tril(lu[:, :32], -1)
        worst = max(worst, np.abs(L).max())
    assert worst < 10.0  # GEPP gives 1.0; tournament stays the same order


def test_flat_tree_single_merge_same_pivots_as_stacked_gepp():
    """A flat tree merges all candidate sets in one GEPP."""
    A0 = make_rng(3).standard_normal((80, 8))
    lu_f, piv_f = tslu(A0, tr=4, tree=TreeKind.FLAT)
    assert_lu_ok(A0, lu_f, piv_f, tol=1e-12)


def test_binary_vs_flat_both_valid_but_may_differ():
    A0 = make_rng(4).standard_normal((160, 16))
    lu_b, piv_b = tslu(A0, tr=4, tree=TreeKind.BINARY)
    lu_f, piv_f = tslu(A0, tr=4, tree=TreeKind.FLAT)
    assert_lu_ok(A0, lu_b, piv_b)
    assert_lu_ok(A0, lu_f, piv_f)


def test_wide_panel_rejected():
    with pytest.raises(ValueError, match="tall"):
        tslu(np.zeros((5, 10)))


def test_overwrite_flag():
    """tslu has no in-place mode: ``lu`` is a copy, never the input."""
    A0 = make_rng(5).standard_normal((60, 6))
    A = A0.copy()
    with pytest.raises(TypeError):
        tslu(A, tr=2, overwrite=True)
    lu, piv = tslu(A, tr=2)
    assert not np.shares_memory(lu, A)
    assert_lu_ok(A0, lu, piv)


def test_input_not_modified_by_default():
    A0 = make_rng(6).standard_normal((60, 6))
    A = A0.copy()
    tslu(A, tr=2)
    np.testing.assert_array_equal(A, A0)


def test_custom_executor():
    A0 = make_rng(7).standard_normal((90, 9))
    lu, piv = tslu(A0, tr=3, executor=ThreadedExecutor(3))
    assert_lu_ok(A0, lu, piv)


def test_duplicated_rows_matrix():
    """Rank-deficient-ish panels with repeated rows still factor (GEPP-like)."""
    rng = make_rng(9)
    base = rng.standard_normal((10, 6))
    A0 = np.vstack([base, base + 1e-8 * rng.standard_normal((10, 6)), rng.standard_normal((20, 6))])
    lu, piv = tslu(A0, tr=4)
    assert_lu_ok(A0, lu, piv, tol=1e-7)


@given(st.integers(1, 8), st.sampled_from(list(TreeKind)), st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_property_tslu_valid_factorization(tr, tree, seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 12))
    m = n * int(rng.integers(1, 12))
    A0 = rng.standard_normal((m, n))
    lu, piv = tslu(A0, tr=tr, tree=tree)
    assert_lu_ok(A0, lu, piv, tol=1e-10)
    perm = piv_to_perm(piv, m)
    assert sorted(perm) == list(range(m))
