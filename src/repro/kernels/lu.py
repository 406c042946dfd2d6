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
    kernel of every TSLU tournament merge (GEPP on the stacked
    candidates, whichever kernel runs it).

All variants factor in place: on return ``A`` holds ``L`` strictly
below the diagonal (unit diagonal implicit) and ``U`` on and above it.
They return the pivot vector in LAPACK ``ipiv`` convention
(``piv[i] = p`` means rows ``i`` and ``p`` were swapped at step ``i``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.analysis.flops import lu_flops
from repro.counters import add_call, add_comparisons, add_flops
from repro.kernels.blas import gemm, ger, laswp, trsm_llnu

__all__ = [
    "getf2",
    "getf2_nopiv",
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
    ``n²·m − n³/3`` flops (leading order), all of it in BLAS2 ``ger``
    updates — memory-bound, which is exactly why the paper's TSLU
    replaces it on the critical path.
    """
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
            # Singular column: nothing to eliminate, matching LAPACK's
            # behaviour of leaving an exact zero pivot in place.
            continue
        add_flops(m - j - 1)
        A[j + 1 :, j] /= A[j, j]
        if j + 1 < n:
            ger(A[j + 1 :, j + 1 :], A[j + 1 :, j], A[j, j + 1 :])
    return piv


def getf2_nopiv(A: np.ndarray) -> None:
    """Unblocked LU *without* pivoting, in place.

    Used on a panel whose tournament-selected pivot rows have already
    been swapped to the top: CALU's second TSLU step.
    """
    m, n = A.shape
    add_call("getf2_nopiv")
    for j in range(min(m, n)):
        if A[j, j] == 0.0:
            raise ZeroDivisionError(f"zero pivot at {j} in no-pivoting LU")
        add_flops(m - j - 1)
        A[j + 1 :, j] /= A[j, j]
        if j + 1 < n:
            ger(A[j + 1 :, j + 1 :], A[j + 1 :, j], A[j, j + 1 :])


def rgetf2(A: np.ndarray, threshold: int = 16) -> np.ndarray:
    """Recursive LU with partial pivoting (Toledo), in place. Returns ``piv``.

    Splits the columns in half, factors the left half recursively,
    applies pivots and a triangular solve to the right half, updates,
    and factors the trailing part recursively.  Recursion turns almost
    all the work into ``gemm`` calls, giving BLAS3 cache behaviour
    without an explicit block size — the property the paper exploits to
    make each TSLU leaf task fast.

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
    trsm_llnu(_unit_lower(left[:n1]), right[:n1])
    gemm(right[n1:], left[n1:], right[:n1])
    piv2 = rgetf2(right[n1:], threshold)
    laswp(left[n1:], piv2)
    return np.concatenate([piv1, piv2 + n1])


#: What ``leaf_kernel=`` / ``panel=`` names, the paper's choice first (it needs ``m >= n``).
PANEL_KERNELS = {"rgetf2": rgetf2, "getf2": getf2}


def getrf(A: np.ndarray, b: int = 64, panel: str = "getf2") -> np.ndarray:
    """Blocked right-looking LU with partial pivoting, in place.

    The reference structure of vendor ``dgetrf``: factor a ``b``-wide
    panel with the BLAS2 (or recursive) kernel, apply the pivots across
    the full width, solve for the block row of ``U`` and update the
    trailing matrix with ``gemm``.

    Parameters
    ----------
    A : (m, n) array.
    b : panel width.
    panel : ``"getf2"`` or ``"rgetf2"`` — which sequential kernel
        factors each panel.
    """
    m, n = A.shape
    r = min(m, n)
    add_call("getrf")
    panel_fn = PANEL_KERNELS[panel]
    piv = np.arange(r, dtype=np.int64)
    for k in range(0, r, b):
        bk = min(b, r - k)
        pk = panel_fn(A[k:, k : k + bk])
        piv[k : k + bk] = pk + k
        # Apply the panel's pivots to the left and right of the panel.
        laswp(A[k:, :k], pk)
        laswp(A[k:, k + bk :], pk)
        if k + bk < n:
            trsm_llnu(_unit_lower(A[k : k + bk, k : k + bk]), A[k : k + bk, k + bk :])
            if k + bk < m:
                gemm(A[k + bk :, k + bk :], A[k + bk :, k : k + bk], A[k : k + bk, k + bk :])
    return piv


def lapack_getrf(A: np.ndarray) -> np.ndarray:
    """LAPACK ``?getrf`` of the block, in place.  Returns the 0-based ``piv``.

    GEPP, so the pivots are those of :func:`getf2` / :func:`rgetf2` (up
    to ties broken by rounding) — the vendor's sequential LU, as the
    paper's tasks call MKL/ACML.  Any shape: a ``m < n`` block yields
    ``m`` pivots.  The routine is picked by dtype (``sgetrf`` for a
    float32 block) and the call releases the GIL.  An exactly singular
    column is left in place, as :func:`getf2` does (LAPACK's ``info >
    0`` is not an error).  Counted as one call of ``lu_flops(m, n)``.
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
    for i, p in enumerate(np.asarray(piv).tolist()):
        if p != i:
            moved[i], moved[p] = moved.get(p, p), moved.get(i, i)
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


#: The kernel every tournament merge selects with, whatever the leaves run.
MERGE_KERNEL = "lapack_getrf"

_SELECTORS = {**PANEL_KERNELS, MERGE_KERNEL: lapack_getrf}


def select_pivots(block: np.ndarray, kernel: str) -> tuple[np.ndarray, np.ndarray]:
    """GEPP a *copy* of *block*; return the selected positions and their factors.

    The tournament-pivoting selection step: a leaf passes its
    ``leaf_kernel`` (a :data:`PANEL_KERNELS` name; a block shorter than
    it is wide falls to ``getf2``), a merge :data:`MERGE_KERNEL`.
    Returns ``(sel, lu)``: the ``r = min(rows, cols)`` pivot positions
    in order, and the top ``r`` rows of the factored copy — the packed
    no-pivoting LU of ``block[sel]`` (``L`` strictly below the diagonal,
    ``U`` on and above it), which the panel's last election hands to the
    finalize.  The input is never modified — callers forward the
    original rows up the reduction tree, so the factored values must not
    leak into the candidate sets.
    """
    rows, cols = block.shape
    fn = _SELECTORS[kernel]
    if rows < cols and kernel in PANEL_KERNELS:
        fn = getf2
    work = block.copy()
    r = min(rows, cols)
    return piv_to_perm(fn(work), rows)[:r], work[:r]


def _unit_lower(B: np.ndarray) -> np.ndarray:
    """View-with-copy of the unit lower-triangular factor stored in ``B``."""
    L = np.tril(B, -1)
    np.fill_diagonal(L, 1.0)
    return L
