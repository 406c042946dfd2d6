"""Tests for the full distributed CALU factorization."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calu import calu
from repro.core.trees import TreeKind
from repro.distmem import AlphaBeta, distributed_calu
from tests.conftest import assert_lu_ok, make_rng


@pytest.mark.parametrize("m,n,P,b", [(128, 128, 4, 32), (200, 120, 3, 25), (96, 96, 8, 16), (64, 100, 2, 16)])
def test_factorization_correct(m, n, P, b):
    A0 = make_rng(m + n + P).standard_normal((m, n))
    res = distributed_calu(A0, P=P, b=b)
    assert_lu_ok(A0, res.lu, res.piv, tol=1e-11)


def test_single_rank_matches_sequential_blocked_lu(*_):
    """P=1: no communication at all, plain blocked CALU numerics."""
    A0 = make_rng(0).standard_normal((90, 90))
    res = distributed_calu(A0, P=1, b=30)
    assert res.comm.n_messages == 0
    assert_lu_ok(A0, res.lu, res.piv)


def test_solution_matches_scipy():
    A0 = make_rng(1).standard_normal((120, 120))
    res = distributed_calu(A0, P=4, b=30)
    rhs = make_rng(2).standard_normal(120)
    r = min(A0.shape)
    L = np.tril(res.lu, -1) + np.eye(120)
    U = np.triu(res.lu)
    y = scipy.linalg.solve_triangular(L, rhs[res.perm], lower=True)
    x = scipy.linalg.solve_triangular(U, y)
    np.testing.assert_allclose(A0 @ x, rhs, rtol=1e-8, atol=1e-9)


def test_rounds_scale_with_panels_times_logp():
    """O((n/b) log2 P) rounds — not O(n log2 P)."""
    m = n = 256
    A0 = make_rng(3).standard_normal((m, n))
    res = distributed_calu(A0, P=8, b=32)
    panels = n // 32
    logp = math.ceil(math.log2(8))
    # Per panel: tree rounds + pivot bcast + swap round + U bcast.
    upper = panels * (logp + logp + 1 + logp)
    assert res.comm.n_rounds <= upper
    # And far below a classic panel's per-column pattern.
    classic_rounds = n * (logp + 1)
    assert res.comm.n_rounds < classic_rounds / 4


def test_flat_vs_binary_tree_both_correct():
    A0 = make_rng(4).standard_normal((160, 80))
    for tree in (TreeKind.BINARY, TreeKind.FLAT):
        res = distributed_calu(A0, P=5, b=20, tree=tree)
        assert_lu_ok(A0, res.lu, res.piv, tol=1e-11)


def test_alpha_beta_time_positive():
    A0 = make_rng(5).standard_normal((100, 100))
    res = distributed_calu(A0, P=4, b=25)
    assert res.comm.time(AlphaBeta()) > 0.0


@given(st.integers(1, 8), st.integers(0, 50), st.sampled_from(list(TreeKind)))
@settings(max_examples=12, deadline=None)
def test_property_distributed_calu(P, seed, tree):
    rng = make_rng(seed)
    b = int(rng.integers(4, 24))
    m = int(rng.integers(b, 120))
    n = int(rng.integers(b, 120))
    A0 = rng.standard_normal((m, n))
    res = distributed_calu(A0, P=P, b=b, tree=tree)
    assert_lu_ok(A0, res.lu, res.piv, tol=1e-9)
    # The ranks are the shared-memory driver's chunks: its pivots, every shape.
    np.testing.assert_array_equal(res.piv, calu(A0, b=b, tr=P, tree=tree).piv)
