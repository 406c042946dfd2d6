"""Tests for TSQR — tall-skinny QR via reduction trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outofcore import tsqr_ooc
from repro.core.trees import TreeKind
from repro.core.tsqr import tsqr
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import make_rng


@pytest.mark.parametrize("tree", list(TreeKind))
@pytest.mark.parametrize("m,n,tr", [(64, 8, 4), (200, 20, 4), (333, 10, 7), (100, 30, 1), (40, 40, 4)])
def test_factorization(m, n, tr, tree):
    A0 = make_rng(m + n + tr).standard_normal((m, n))
    f = tsqr(A0, tr=tr, tree=tree)
    Q = f.q_explicit()
    assert np.linalg.norm(A0 - Q @ f.R) / np.linalg.norm(A0) < 1e-13
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-12


def test_r_is_upper_triangular():
    f = tsqr(make_rng(0).standard_normal((100, 10)), tr=4)
    np.testing.assert_array_equal(f.R, np.triu(f.R))


def test_r_matches_numpy_up_to_signs():
    A0 = make_rng(1).standard_normal((150, 12))
    f = tsqr(A0, tr=4)
    _, R_ref = np.linalg.qr(A0)
    np.testing.assert_allclose(np.abs(f.R), np.abs(R_ref), rtol=1e-9, atol=1e-11)


def test_apply_qt_then_q_is_identity():
    A0 = make_rng(2).standard_normal((90, 9))
    f = tsqr(A0, tr=3)
    C = make_rng(3).standard_normal((90, 4))
    np.testing.assert_allclose(f.apply_q(f.apply_qt(C)), C, atol=1e-12)


def test_apply_qt_maps_a_to_r():
    A0 = make_rng(4).standard_normal((120, 8))
    f = tsqr(A0, tr=4)
    W = f.apply_qt(A0)
    np.testing.assert_allclose(W[:8], f.R, atol=1e-11)
    np.testing.assert_allclose(W[8:], 0.0, atol=1e-11)


def test_vector_rhs_shapes():
    A0 = make_rng(5).standard_normal((60, 6))
    f = tsqr(A0, tr=2)
    v = make_rng(6).standard_normal(60)
    assert f.apply_qt(v).shape == (60,)
    assert f.apply_q(v).shape == (60,)


def test_least_squares():
    A0 = make_rng(7).standard_normal((200, 15))
    x0 = make_rng(8).standard_normal(15)
    X0 = make_rng(8).standard_normal((15, 3))
    with tsqr_ooc(A0, tr=4) as f_ooc:  # the same class, streamed
        for f in (tsqr(A0, tr=4), f_ooc):
            x = f.solve_ls(A0 @ x0)
            assert np.linalg.norm(x - x0) < 1e-10
            X = f.solve_ls(A0 @ X0)
            assert X.shape == X0.shape and np.linalg.norm(X - X0) < 1e-10


def test_least_squares_matches_lstsq():
    A0 = make_rng(9).standard_normal((120, 10))
    rhs = make_rng(10).standard_normal(120)
    f = tsqr(A0, tr=4)
    x = f.solve_ls(rhs)
    x_ref = np.linalg.lstsq(A0, rhs, rcond=None)[0]
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)


def test_wide_rejected():
    with pytest.raises(ValueError, match="tall"):
        tsqr(np.zeros((4, 9)))


def test_input_preserved_by_default():
    A0 = make_rng(11).standard_normal((50, 5))
    A = A0.copy()
    tsqr(A, tr=2)
    np.testing.assert_array_equal(A, A0)


def test_overwrite():
    """tsqr has no in-place mode: the leaves' reflectors live in a copy."""
    A = make_rng(12).standard_normal((50, 5))
    with pytest.raises(TypeError):
        tsqr(A, tr=2, overwrite=True)
    f = tsqr(A, tr=2)
    assert not any(np.shares_memory(leaf.V.A, A) for leaf in f.store.leaves.values())


def test_trees_give_same_r_up_to_signs():
    A0 = make_rng(13).standard_normal((160, 16))
    rs = [np.abs(tsqr(A0, tr=4, tree=t).R) for t in TreeKind]
    np.testing.assert_allclose(rs[0], rs[1], rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(rs[0], rs[2], rtol=1e-9, atol=1e-11)


def test_custom_executor():
    A0 = make_rng(15).standard_normal((70, 7))
    f = tsqr(A0, tr=3, executor=ThreadedExecutor(2))
    Q = f.q_explicit()
    assert np.linalg.norm(A0 - Q @ f.R) / np.linalg.norm(A0) < 1e-13


def test_orthogonalization_use_case():
    """The paper's motivating application: orthogonalize a block of vectors."""
    V = make_rng(16).standard_normal((500, 6))
    f = tsqr(V, tr=8, tree=TreeKind.FLAT)
    Q = f.q_explicit()
    # Q spans the same space as V.
    proj = Q @ (Q.T @ V)
    np.testing.assert_allclose(proj, V, atol=1e-10)


@given(st.integers(1, 8), st.sampled_from(list(TreeKind)), st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_property_tsqr_orthogonal(tr, tree, seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 10))
    m = n * int(rng.integers(1, 15))
    A0 = rng.standard_normal((m, n))
    f = tsqr(A0, tr=tr, tree=tree)
    Q = f.q_explicit()
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-11
    assert np.linalg.norm(A0 - Q @ f.R) / max(np.linalg.norm(A0), 1e-30) < 1e-11
