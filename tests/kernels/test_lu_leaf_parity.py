"""The NumPy LU kernels, bit for bit against frozen copies of their element loops.

The blocked and tiled baselines factor their panels with ``getf2``, and
the host calibration times ``getf2`` and ``rgetf2`` (every TSLU
tournament leaf elects with LAPACK ``?getrf`` instead, which one test
here pins: a leaf's election is ``?getrf``'s on a copy).  These kernels
are written for few NumPy calls per column, but the contract is that
no floating-point operation is reordered or re-associated: each
multiplier is one division by its pivot, each trailing entry is updated
``a - l*u`` once per column in column order, every ``gemm`` and row
solve sees the same operands.  So the factors,
pivots and counted totals must equal, bit for bit, those of the
straightforward loops frozen below (the per-column ``ger`` version of
``getf2`` and the ``rgetf2``/``getrf``/``laswp``/``trsm_llnu``/
``piv_to_perm`` around it), on a grid of shapes (tall, square, wide, one
row, one column, widths on both sides of ``rgetf2``'s threshold), both
precisions, C- and Fortran-ordered arrays and strided views inside a
larger array (which must be left untouched outside the view), and on
matrices with ties in ``|pivot|`` (the first index wins), an exactly
zero column, and NaN/Inf entries.  "Bit for bit" is every byte of every
entry that is a number, and NaN where the reference has NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters import add_call, add_comparisons, add_flops, add_words, counting
from repro.kernels.blas import laswp, trsm_llnu
from repro.kernels.lu import getf2, getrf, lapack_getrf, piv_to_perm, rgetf2, select_pivots


# ----------------------------------------------------------------------
# Frozen references: the element loops the kernels must match
# ----------------------------------------------------------------------
def _ref_ger(A, x, y):
    m, n = A.shape
    add_call("ger")
    add_flops(2 * m * n)
    A -= np.outer(x, y)


def _ref_getf2(A):
    m, n = A.shape
    r = min(m, n)
    add_call("getf2")
    piv = np.arange(r, dtype=np.int64)
    for j in range(r):
        p = j + int(np.argmax(np.abs(A[j:, j])))
        add_comparisons(m - j - 1)
        piv[j] = p
        if p != j:
            A[[j, p]] = A[[p, j]]
        if A[j, j] == 0.0:
            continue
        add_flops(m - j - 1)
        A[j + 1 :, j] /= A[j, j]
        if j + 1 < n:
            _ref_ger(A[j + 1 :, j + 1 :], A[j + 1 :, j], A[j, j + 1 :])
    return piv


def _ref_gemm(C, A, B):
    add_call("gemm")
    add_flops(2 * C.shape[0] * C.shape[1] * A.shape[1])
    C -= A @ B


def _ref_unit_lower(B):
    L = np.tril(B, -1)
    np.fill_diagonal(L, 1.0)
    return L


def _ref_laswp(A, piv, forward=True):
    m, n = A.shape
    add_call("laswp")
    at = {}
    swaps = 0
    targets = np.asarray(piv).astype(np.int64, copy=False).tolist()
    for i in range(len(targets)) if forward else range(len(targets) - 1, -1, -1):
        p = targets[i]
        if not 0 <= p < m:
            raise ValueError(f"laswp: corrupted pivot piv[{i}] = {p} out of range for {m} rows")
        if p != i:
            swaps += 1
            at[i], at[p] = at.get(p, p), at.get(i, i)
    if swaps:
        add_words(2 * n * swaps)
        A[list(at)] = A[list(at.values())]
    return A


def _ref_trsm_llnu(L, B):
    k = L.shape[0]
    add_call("trsm_llnu")
    add_flops(k * (k - 1) * B.shape[1])
    for i in range(1, k):
        B[i] -= L[i, :i] @ B[:i]
    return B


def _ref_rgetf2(A, threshold=16):
    m, n = A.shape
    add_call("rgetf2")
    if n <= threshold:
        return _ref_getf2(A)
    n1 = n // 2
    left, right = A[:, :n1], A[:, n1:]
    piv1 = _ref_rgetf2(left, threshold)
    _ref_laswp(right, piv1)
    _ref_trsm_llnu(_ref_unit_lower(left[:n1]), right[:n1])
    _ref_gemm(right[n1:], left[n1:], right[:n1])
    piv2 = _ref_rgetf2(right[n1:], threshold)
    _ref_laswp(left[n1:], piv2)
    return np.concatenate([piv1, piv2 + n1])


def _ref_getrf(A, b=64):
    m, n = A.shape
    r = min(m, n)
    add_call("getrf")
    piv = np.arange(r, dtype=np.int64)
    for k in range(0, r, b):
        bk = min(b, r - k)
        pk = _ref_getf2(A[k:, k : k + bk])
        piv[k : k + bk] = pk + k
        _ref_laswp(A[k:, :k], pk)
        _ref_laswp(A[k:, k + bk :], pk)
        if k + bk < n:
            _ref_trsm_llnu(_ref_unit_lower(A[k : k + bk, k : k + bk]), A[k : k + bk, k + bk :])
            if k + bk < m:
                _ref_gemm(A[k + bk :, k + bk :], A[k + bk :, k : k + bk], A[k : k + bk, k + bk :])
    return piv


def _ref_piv_to_perm(piv, m):
    moved = {}
    for i, p in enumerate(np.asarray(piv).tolist()):
        if p != i:
            moved[i], moved[p] = moved.get(p, p), moved.get(i, i)
    perm = np.arange(m, dtype=np.int64)
    if moved:
        perm[list(moved)] = list(moved.values())
    return perm


def _ref_select(block):
    """A tournament leaf's election: LAPACK ``?getrf`` on a copy."""
    rows, cols = block.shape
    work = block.copy()
    piv = lapack_getrf(work)
    r = min(rows, cols)
    return _ref_piv_to_perm(piv, rows)[:r], work[:r]


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
#: Tall, square and wide blocks; one row and one column; widths below,
#: at and above ``rgetf2``'s threshold of 16 (a 2560x128 panel's
#: 320x32 leaves, a 320x320 solve's 160x64 ones).
SHAPES = [
    (128, 16), (160, 32), (97, 40), (160, 64), (40, 17), (12, 8),
    (1, 1), (16, 16), (33, 33),
    (3, 8), (16, 40),
    (1, 7), (9, 1),
]
KINDS = ("normal", "ties", "zero_column", "nonfinite", "signed_nan")
LAYOUTS = ("C", "F", "view", "stepped")
DTYPES = (np.float64, np.float32)


def _values(kind, m, n, dtype, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # Small integers: many equal |a| in every pivot search.
        X = rng.integers(-2, 3, size=(m, n)).astype(float)
        X[:, 0] = np.where(np.arange(m) % 2, 1.0, -1.0)  # all tied, first row wins
    else:
        X = rng.standard_normal((m, n))
    if kind == "zero_column":
        X[:, n // 2] = 0.0
    elif kind == "nonfinite":
        X[m // 3, min(1, n - 1)] = np.nan
        X[(2 * m) // 3, 0] = np.inf
        X[m - 1, n - 1] = -np.inf
    elif kind == "signed_nan":
        # A NaN pivot, and a NaN of the other sign in its row.
        X[m // 2, 0] = np.nan
        X[m // 2, n - 1] = -np.nan
    return X.astype(dtype)


def _place(X, layout, seed):
    """``(whole, A)``: *A* holds *X*, laid out as *layout*, inside *whole*."""
    m, n = X.shape
    if layout in ("C", "F"):
        A = X.copy(order=layout)
        return A, A
    rng = np.random.default_rng(seed + 1)
    if layout == "view":
        whole = rng.standard_normal((m + 5, n + 7)).astype(X.dtype)
        A = whole[2 : 2 + m, 3 : 3 + n]
    else:
        whole = rng.standard_normal((2 * m + 1, 2 * n + 1)).astype(X.dtype)
        A = whole[1::2, 1::2]
    A[...] = X
    return whole, A


def _same_bits(got, ref):
    """Equal bytes wherever *ref* is a number (so the sign of zero too),
    and NaN exactly where *ref* is NaN.

    Which operand's NaN a product of two NaNs keeps is not fixed by
    NumPy's vector loops (``np.outer`` itself gives rows of mixed signs
    depending on their length), so a NaN's sign and payload are not part
    of the contract.
    """
    assert got.dtype == ref.dtype and got.shape == ref.shape
    nan = np.isnan(ref)
    if not np.array_equal(np.isnan(got), nan):
        return False
    return np.ascontiguousarray(got)[~nan].tobytes() == np.ascontiguousarray(ref)[~nan].tobytes()


def _totals(c):
    return c.flops, c.comparisons, c.words


def _check(kernel, ref_kernel, shape, dtype, layout):
    seed = shape[0] * 1000 + shape[1]
    for kind in KINDS:
        X = _values(kind, *shape, dtype, seed)
        whole_ref, A_ref = _place(X, layout, seed)
        whole_got, A_got = _place(X, layout, seed)
        with np.errstate(all="ignore"):
            with counting() as c_ref:
                piv_ref = ref_kernel(A_ref)
            with counting() as c_got:
                piv_got = kernel(A_got)
        where = f"{kind} {shape} {np.dtype(dtype).name} {layout}"
        assert piv_got.dtype == np.int64, where
        assert np.array_equal(piv_got, piv_ref), where
        assert _same_bits(whole_got, whole_ref), where
        assert _totals(c_got) == _totals(c_ref), where
        calls_ref = {k: v for k, v in c_ref.kernel_calls.items() if k != "ger"}
        assert c_got.kernel_calls == calls_ref, where


def _ids(shapes):
    return [f"{m}x{n}" for m, n in shapes]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("shape", SHAPES, ids=_ids(SHAPES))
def test_getf2_is_the_element_loop_bit_for_bit(shape, dtype, layout):
    _check(getf2, _ref_getf2, shape, dtype, layout)


TALL = [s for s in SHAPES if s[0] >= s[1]]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("shape", TALL, ids=_ids(TALL))
def test_rgetf2_is_the_frozen_recursion_bit_for_bit(shape, dtype, layout):
    _check(rgetf2, _ref_rgetf2, shape, dtype, layout)


@pytest.mark.parametrize("threshold", [1, 4])
@pytest.mark.parametrize("shape", [(160, 64), (97, 40), (33, 33)], ids=_ids([(160, 64), (97, 40), (33, 33)]))
def test_rgetf2_below_the_default_threshold_bit_for_bit(shape, threshold):
    _check(
        lambda A: rgetf2(A, threshold), lambda A: _ref_rgetf2(A, threshold), shape, np.float64, "view"
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("b", [8, 64])
@pytest.mark.parametrize("shape", [(97, 40), (33, 33), (16, 40), (1, 7), (9, 1)],
                         ids=_ids([(97, 40), (33, 33), (16, 40), (1, 7), (9, 1)]))
def test_getrf_is_the_frozen_blocked_loop_bit_for_bit(shape, b, layout):
    _check(lambda A: getrf(A, b), lambda A: _ref_getrf(A, b), shape, np.float64, layout)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("shape", SHAPES, ids=_ids(SHAPES))
def test_a_tournament_leaf_elects_and_factors_bit_for_bit(shape, dtype):
    """A leaf's selection and factors are ``?getrf``'s on a copy, in one
    call, whatever the block's shape or values."""
    seed = shape[0] * 1000 + shape[1]
    for kind in KINDS:
        block = _values(kind, *shape, dtype, seed)
        before = block.copy()
        with np.errstate(all="ignore"):
            with counting() as c_ref:
                sel_ref, lu_ref = _ref_select(block)
            with counting() as c_got:
                sel_got, lu_got = select_pivots(block)
        assert _same_bits(block, before), kind  # the candidates stay unfactored
        assert np.array_equal(sel_got, sel_ref), kind
        assert _same_bits(lu_got, lu_ref), kind
        assert _totals(c_got) == _totals(c_ref), kind
        assert c_got.kernel_calls == {"lapack_getrf": 1}, kind


def test_ties_go_to_the_first_maximum():
    A = np.array([[1.0, 2.0], [-1.0, 3.0], [1.0, 4.0]])
    assert getf2(A.copy())[0] == 0
    B = np.array([[0.5, 1.0], [-2.0, 1.0], [2.0, 1.0]])
    assert getf2(B.copy())[0] == 1


# ----------------------------------------------------------------------
# The swap and solve helpers around the recursion
# ----------------------------------------------------------------------
def _swap_draws(n_cases, seed):
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        m = 1 if case % 40 == 0 else int(rng.integers(1, 60))
        r = int(rng.integers(0, m + 1))
        kind = case % 3
        if kind == 0:  # LAPACK form: piv[i] >= i
            piv = np.array([rng.integers(i, m) for i in range(r)], dtype=np.int64)
        elif kind == 1:  # no swaps
            piv = np.arange(r)
        else:  # any target, repeats included
            piv = rng.integers(0, m, size=r)
        yield rng, m, piv


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_laswp_is_the_frozen_swap_composition(forward, layout):
    for rng, m, piv in _swap_draws(400, 21 + forward):
        X = rng.standard_normal((m, 5))
        whole_ref, A_ref = _place(X, layout, m)
        whole_got, A_got = _place(X, layout, m)
        with counting() as c_ref:
            _ref_laswp(A_ref, piv, forward)
        with counting() as c_got:
            laswp(A_got, piv, forward)
        assert _same_bits(whole_got, whole_ref), (m, piv)
        assert _totals(c_got) == _totals(c_ref), (m, piv)


@pytest.mark.parametrize("forward", [True, False])
def test_laswp_names_the_first_corrupted_pivot_it_meets(forward):
    piv = np.array([1, 9, 2, -1, 3])
    A = np.arange(20.0).reshape(5, 4)
    for fn in (_ref_laswp, laswp):
        with pytest.raises(ValueError, match=r"piv\[1\] = 9" if forward else r"piv\[3\] = -1"):
            fn(A, piv, forward)
    np.testing.assert_array_equal(A, np.arange(20.0).reshape(5, 4))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("k,n", [(1, 3), (8, 8), (16, 48), (32, 5)])
def test_trsm_llnu_reads_the_strict_lower_triangle_only(k, n, dtype, layout):
    """A packed LU block solves bitwise like its unit lower factor.

    ``rgetf2`` and ``getrf`` hand ``trsm_llnu`` a C-ordered copy of the
    packed block, laid out as ``np.tril``'s result was: a strided row of
    ``L`` can take BLAS's other dot-product path and round differently.
    """
    rng = np.random.default_rng(k * 100 + n)
    P = rng.standard_normal((k, k)).astype(dtype)
    X = rng.standard_normal((k, n)).astype(dtype)
    whole_ref, B_ref = _place(X, layout, n)
    whole_got, B_got = _place(X, layout, n)
    with counting() as c_ref:
        _ref_trsm_llnu(_ref_unit_lower(P), B_ref)
    with counting() as c_got:
        trsm_llnu(P, B_got)
    assert _same_bits(whole_got, whole_ref)
    assert _totals(c_got) == _totals(c_ref)


def test_piv_to_perm_is_the_frozen_composition():
    for _, m, piv in _swap_draws(2000, 23):
        got = piv_to_perm(piv, m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _ref_piv_to_perm(piv, m))
