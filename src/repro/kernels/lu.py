"""Sequential LU factorization kernels.

Four variants, mirroring the routines the paper names:

``getf2``
    Unblocked BLAS2 Gaussian elimination with partial pivoting — the
    LAPACK panel kernel whose poor multicore performance (``MKL_dgetf2``
    in the paper's Figures 5-6) motivates TSLU.
``rgetf2``
    Recursive LU with partial pivoting (Toledo 1997; Gustavson 1997) —
    the paper's preferred *sequential* kernel inside TSLU tasks
    ("the best results are obtained by using recursive LU").
``getrf``
    Blocked right-looking LU — the structure of the vendor ``dgetrf``
    the paper compares against.
``lapack_getrf``
    The vendor's ``?getrf`` itself, a thin wrapper — the selection
    kernel of every TSLU tournament node, leaf and merge alike (GEPP on
    a chunk or on the stacked candidates, whichever kernel runs it).

Every TSLU election runs ``lapack_getrf`` (:func:`select_pivots`), as
the paper's tasks call the vendor's sequential LU; a leaf's ``Cost``
keeps the paper's ``rgetf2``, which reference LAPACK's recursive
``?getrf2`` implements.  The NumPy ``getf2``/``rgetf2`` stay for the
blocked and tiled baselines and the host calibration: the blocked
``getrf`` factors its panels with ``getf2``, as the paper's
``MKL_dgetrf`` baseline does.

All variants factor in place: on return ``A`` holds ``L`` strictly
below the diagonal (unit diagonal implicit) and ``U`` on and above it.
They return the pivot vector in LAPACK ``ipiv`` convention
(``piv[i] = p`` means rows ``i`` and ``p`` were swapped at step ``i``).

On small blocks the NumPy kernels' time is interpreter calls, not flops,
so ``getf2`` spends five array operations per column (``abs`` into a
reused buffer, ``argmax``, the scale, one ``multiply``, one in-place
subtraction, plus a three-copy swap when the pivot moves) and reports
its counters once per call.  No floating-point operation is reordered or
re-associated for it: every factor and pivot of ``getf2``, ``rgetf2``
and ``getrf`` is bit for bit that of the per-column element loop (a
``ger`` per column), with the same flop and comparison totals —
``tests/kernels/test_lu_leaf_parity.py`` holds that loop frozen.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.analysis.flops import lu_flops
from repro.counters import add_call, add_comparisons, add_flops
from repro.kernels.blas import gemm, laswp, trsm_llnu

__all__ = [
    "getf2",
    "rgetf2",
    "getrf",
    "lapack_getrf",
    "piv_to_perm",
    "perm_from_piv_rows",
    "select_pivots",
]


def getf2(A: np.ndarray) -> np.ndarray:
    """Unblocked LU with partial pivoting, in place. Returns ``piv``.

    For an ``m x n`` matrix with ``m >= n`` this performs
    ``n²·m − n³/3`` flops (leading order), all of it in BLAS2 rank-1
    updates — memory-bound, which is exactly why the paper's TSLU
    replaces it on the critical path.

    The column loop runs on a transposed working copy ``W`` (``W[j]``
    is column ``j``, contiguous, so every inner loop runs down a
    column) written back once at the end.  Per column: the pivot search
    (``abs`` into a reused buffer, then ``argmax``: the first maximal
    ``|a|`` wins, a NaN beats every number), a swap only when
    ``p != j``, the multipliers scaled in place (one division each by
    the pivot) and the rank-1 update as one ``multiply`` (multiplier
    first) and one in-place subtraction, ``a - l·u`` once per entry
    and column.  Those are the operations and operands of the element
    loop, so every factor that is a number is bitwise its own whatever
    the layout of ``A`` (a NaN stays a NaN; which NaN a product of two
    keeps is up to NumPy's vector loops, in the element loop too).  An
    exactly zero pivot leaves its column in place (LAPACK's ``info >
    0``).  Flops and comparisons are reported once per call.
    """
    m, n = A.shape
    r = min(m, n)
    add_call("getf2")
    piv = np.arange(r, dtype=np.int64)
    W = A.T.copy()
    mag = np.empty(m, dtype=W.dtype)
    row = np.empty(n, dtype=W.dtype)
    flops = 0
    for j in range(r):
        w = W[j]
        p = j + int(np.abs(w[j:], out=mag[j:]).argmax())
        if p != j:
            piv[j] = p
            row[...] = W[:, j]
            W[:, j] = W[:, p]
            W[:, p] = row
        d = w[j]
        if d == 0.0:
            continue
        x = w[j + 1 :]
        x /= d
        if j + 1 < n:
            T = W[j + 1 :, j + 1 :]
            T -= np.multiply(x, W[j + 1 :, j, None])
        flops += (m - j - 1) * (2 * (n - j - 1) + 1)
    A[...] = W.T
    add_comparisons(r * m - r * (r + 1) // 2)
    add_flops(flops)
    return piv


def rgetf2(A: np.ndarray, threshold: int = 16) -> np.ndarray:
    """Recursive LU with partial pivoting (Toledo), in place. Returns ``piv``.

    Splits the columns in half, factors the left half recursively,
    applies pivots and a triangular solve to the right half, updates,
    and factors the trailing part recursively.  Recursion turns almost
    all the work into ``gemm`` calls, giving BLAS3 cache behaviour
    without an explicit block size — the property the paper exploits to
    make each TSLU leaf task fast (here LAPACK's ``?getrf2`` runs it).

    The Python around the recursion is kept to its operations: the
    diagonal block goes to :func:`~repro.kernels.blas.trsm_llnu` as a
    C-ordered copy of the packed factor (the solve reads only its strict
    lower triangle, and a C-ordered row is what every row solve has
    always multiplied), and the two pivot halves are joined once.  Every
    ``gemm`` and row solve sees the operands it always did, so the
    factors are bit for bit the frozen recursion's.

    Parameters
    ----------
    A : (m, n) array with ``m >= n``.
    threshold : column count below which to fall back to ``getf2``.
    """
    m, n = A.shape
    if m < n:
        raise ValueError(f"rgetf2 requires m >= n, got {A.shape}")
    add_call("rgetf2")
    if n <= threshold:
        return getf2(A)
    n1 = n // 2
    left, right = A[:, :n1], A[:, n1:]
    piv1 = rgetf2(left, threshold)
    laswp(right, piv1)
    trsm_llnu(left[:n1].copy(), right[:n1])
    gemm(right[n1:], left[n1:], right[:n1])
    piv2 = rgetf2(right[n1:], threshold)
    laswp(left[n1:], piv2)
    piv2 += n1
    return np.concatenate((piv1, piv2))


def getrf(A: np.ndarray, b: int = 64) -> np.ndarray:
    """Blocked right-looking LU with partial pivoting, in place.

    The reference structure of vendor ``dgetrf``: factor a ``b``-wide
    panel with the BLAS2 ``getf2``, apply the pivots across the full
    width, solve for the block row of ``U`` and update the trailing
    matrix with ``gemm``.
    """
    m, n = A.shape
    r = min(m, n)
    add_call("getrf")
    piv = np.arange(r, dtype=np.int64)
    for k in range(0, r, b):
        bk = min(b, r - k)
        pk = getf2(A[k:, k : k + bk])
        piv[k : k + bk] = pk + k
        # Apply the panel's pivots to the left and right of the panel.
        laswp(A[k:, :k], pk)
        laswp(A[k:, k + bk :], pk)
        if k + bk < n:
            trsm_llnu(A[k : k + bk, k : k + bk].copy(), A[k : k + bk, k + bk :])
            if k + bk < m:
                gemm(A[k + bk :, k + bk :], A[k + bk :, k : k + bk], A[k : k + bk, k + bk :])
    return piv


def lapack_getrf(A: np.ndarray) -> np.ndarray:
    """LAPACK ``?getrf`` of the block, in place.  Returns the 0-based ``piv``.

    GEPP, so the pivots are those of :func:`getf2` / :func:`rgetf2` (up
    to ties broken by rounding) — the vendor's sequential LU, as the
    paper's tasks call MKL/ACML, at every TSLU tournament node.  Any
    shape: a ``m < n`` block yields ``m`` pivots.  The routine is picked
    by dtype (``sgetrf`` for a float32 block) and the call releases the
    GIL.  An exactly singular column is left in place, as :func:`getf2`
    does (LAPACK's ``info > 0`` is not an error).  Counted as one call of
    ``lu_flops(m, n)``.
    """
    m, n = A.shape
    add_call("lapack_getrf")
    add_flops(lu_flops(m, n))
    (fn,) = get_lapack_funcs(("getrf",), (A,))
    lu, piv, info = fn(A)
    if info < 0:
        raise ValueError(f"{fn.typecode}getrf: illegal argument {-info}")
    A[...] = lu
    return piv.astype(np.int64, copy=False)


def piv_to_perm(piv: np.ndarray, m: int) -> np.ndarray:
    """Convert a LAPACK-style swap sequence into a permutation vector.

    Returns ``perm`` such that ``A[perm]`` equals the matrix obtained by
    applying the swaps ``(i, piv[i])`` in increasing ``i`` to ``A``.
    The swaps compose on Python ints over the rows they touch, and the
    result is written once.
    """
    moved: dict[int, int] = {}  # slot -> original row now there, where not the identity
    get = moved.get
    for i, p in enumerate(np.asarray(piv).tolist()):
        if p != i:
            moved[i], moved[p] = get(p, p), get(i, i)
    perm = np.arange(m, dtype=np.int64)
    if moved:
        perm[list(moved)] = list(moved.values())
    return perm


def perm_from_piv_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """Swap sequence bringing global ``rows`` to the leading positions.

    Given the ``b`` tournament-selected pivot rows (global indices into
    an ``m``-row panel), produce a LAPACK-style swap sequence ``piv`` of
    length ``b`` such that applying swaps ``(i, piv[i])`` in order moves
    row ``rows[i]`` into position ``i``.  Only the rows a swap touched
    are tracked, on Python ints.
    """
    pos: dict[int, int] = {}  # original row -> current slot, where moved
    loc: dict[int, int] = {}  # slot -> original row now there, where moved
    piv = []
    for i, r in enumerate(np.asarray(rows).tolist()):
        if not 0 <= r < m:
            raise IndexError(f"pivot row {r} outside a {m}-row panel")
        p = pos.get(r, r)
        piv.append(p)
        if p != i:
            ri = loc.get(i, i)
            loc[i], loc[p] = r, ri
            pos[ri], pos[r] = p, i
    return np.array(piv, dtype=np.int64)


def select_pivots(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GEPP a *copy* of *block*; return the selected positions and their factors.

    The tournament-pivoting selection step, at every node of the tree —
    leaf or merge — one LAPACK ``?getrf`` (:func:`lapack_getrf`).  For a
    block no wider than its block size reference LAPACK runs the
    recursive ``?getrf2``: Toledo's recursion, the paper's leaf kernel.
    A block shorter than it is wide elects its ``rows`` pivots.

    Returns ``(sel, lu)``: the ``r = min(rows, cols)`` pivot positions
    in order, and the top ``r`` rows of the factored copy — the packed
    no-pivoting LU of ``block[sel]`` (``L`` strictly below the diagonal,
    ``U`` on and above it), which the panel's last election hands to the
    finalize.  The input is never modified — callers forward the
    original rows up the reduction tree, so the factored values must
    not leak into the candidate sets.
    """
    rows, cols = block.shape
    work = block.copy()
    r = min(rows, cols)
    return piv_to_perm(lapack_getrf(work), rows)[:r], work[:r]
