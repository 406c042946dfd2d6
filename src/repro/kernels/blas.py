"""BLAS-like primitives with flop accounting.

The heavy lifting is delegated to NumPy's vectorized operations (the
HPC-Python idiom: never loop over matrix elements in Python when a
single array expression does the job), but the *algorithms* built on
top of these primitives are entirely our own.  One exception,
:func:`blas_trsm`, is a thin wrapper of the vendor's ``?trsm``: the
kernel of CALU's L and U tasks, as the paper's Algorithm 1 calls
``dtrsm``.

Flop conventions (LAPACK working-note style, real double precision):

===============================  =======================
``gemm``   C ± A·B               ``2·m·n·k``
``trsm``   triangular solve      ``m·n·k`` -> ``n²·m`` (see functions)
``laswp``  row interchanges      0 flops, ``2·n`` words per swap
===============================  =======================
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from repro.counters import add_call, add_flops, add_words

__all__ = ["gemm", "trsm_llnu", "trsm_runn", "blas_trsm", "laswp"]


def gemm(C: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float = -1.0, beta: float = 1.0) -> np.ndarray:
    """General matrix multiply-accumulate: ``C <- beta*C + alpha*A@B`` in place.

    This is the trailing-matrix ``task S`` kernel of the paper's
    Algorithm 1 (``dgemm``).

    Parameters
    ----------
    C : (m, n) array, updated in place.
    A : (m, k) array.
    B : (k, n) array.
    alpha, beta : scalars; the common LU-update call is
        ``gemm(C, L, U)`` i.e. ``C -= L@U``.
    """
    m, k = A.shape
    k2, n = B.shape
    if k != k2 or C.shape != (m, n):
        raise ValueError(f"gemm shape mismatch: C{C.shape}, A{A.shape}, B{B.shape}")
    add_call("gemm")
    add_flops(2 * m * n * k)
    if beta == 1.0:
        if alpha == 1.0:
            C += A @ B
        elif alpha == -1.0:
            C -= A @ B
        else:
            C += alpha * (A @ B)
    elif beta == 0.0:
        # LAPACK beta=0 semantics: C's previous contents are ignored,
        # not multiplied — 0 * NaN would poison the product otherwise.
        C[...] = alpha * (A @ B)
    else:
        C *= beta
        C += alpha * (A @ B)
    return C


def trsm_llnu(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` in place in ``B`` — Left, Lower, No-transpose, Unit diagonal.

    Used for computing a block row of U (``task U``):
    ``U_{K,J} = L_{KK}^{-1} A_{K,J}``.  Only the strict lower triangle
    of ``L`` is read, as BLAS ``?trsm`` with a unit diagonal does, so
    ``L`` may be a packed LU block.

    Implemented by forward substitution over rows, each step a
    vectorized rank-update of the remaining rows.
    """
    k = L.shape[0]
    if L.shape != (k, k) or B.shape[0] != k:
        raise ValueError(f"trsm_llnu shape mismatch: L{L.shape}, B{B.shape}")
    n = B.shape[1]
    add_call("trsm_llnu")
    add_flops(k * (k - 1) * n)  # k-1 axpy rows of length n, twice per flop pair
    for i in range(1, k):
        # B[i] -= L[i, :i] @ B[:i]  (unit diagonal, no division)
        row = B[i]
        row -= L[i, :i] @ B[:i]
    return B


def trsm_runn(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``X U = B`` in place in ``B`` — Right, Upper, No-transpose, Non-unit.

    Used for computing a block column of L (``task L``):
    ``L_{I,K} = A_{I,K} U_{KK}^{-1}``.
    """
    k = U.shape[0]
    if U.shape != (k, k) or B.shape[1] != k:
        raise ValueError(f"trsm_runn shape mismatch: U{U.shape}, B{B.shape}")
    m = B.shape[0]
    add_call("trsm_runn")
    add_flops(m * k * k)  # m·k divisions + m·k·(k-1) mul-adds
    for j in range(k):
        if j:
            B[:, j] -= B[:, :j] @ U[:j, j]
        B[:, j] /= U[j, j]
    return B


def blas_trsm(T: np.ndarray, B: np.ndarray, *, left: bool, lower: bool, unit: bool) -> np.ndarray:
    """Solve ``T X = B`` (*left*) or ``X T = B`` in place in ``B`` with BLAS ``?trsm``.

    The vendor's triangular solve, picked by dtype (``strsm`` for
    float32 blocks) as :func:`repro.kernels.lu.lapack_getrf` is: with
    ``left=False, lower=False, unit=False`` it is :func:`trsm_runn`
    (task L), with ``left=True, lower=True, unit=True``
    :func:`trsm_llnu` (task U).  Only the triangle *lower* names is
    read (its diagonal only when not *unit*), so ``T`` may be a packed
    LU block.  Counted as one ``blas_trsm`` call of the flops its NumPy
    twin counts.
    """
    k = T.shape[0]
    if T.shape != (k, k) or B.shape[0 if left else 1] != k:
        raise ValueError(f"blas_trsm shape mismatch: T{T.shape}, B{B.shape}")
    add_call("blas_trsm")
    add_flops(B.shape[1 if left else 0] * k * (k - unit))
    (fn,) = get_blas_funcs(("trsm",), (T, B))
    B[...] = fn(1.0, T, B, side=int(not left), lower=int(lower), diag=int(unit))
    return B


def laswp(A: np.ndarray, piv: np.ndarray, forward: bool = True) -> np.ndarray:
    """Apply a sequence of row interchanges to ``A`` in place (``dlaswp``).

    Parameters
    ----------
    A : (m, n) array.
    piv : int array; ``piv[i] = p`` means "swap row ``i`` with row ``p``"
        applied in increasing ``i`` for ``forward=True`` (factor-time
        order) and decreasing ``i`` otherwise (undo order).

    Raises
    ------
    ValueError
        If any swap target lies outside ``[0, m)`` — a corrupted pivot
        array must fail loudly here (where the resilience guards can
        catch it) instead of silently wrapping via negative indexing.
    """
    m, n = A.shape
    add_call("laswp")
    targets = np.asarray(piv).astype(np.int64, copy=False).tolist()
    order = range(len(targets)) if forward else range(len(targets) - 1, -1, -1)
    if targets and not (0 <= min(targets) and max(targets) < m):
        i = next(i for i in order if not 0 <= targets[i] < m)
        raise ValueError(
            f"laswp: corrupted pivot piv[{i}] = {targets[i]} out of range for {m} rows"
        )
    # Compose the interchanges on row indices — ``at[r]`` is the original
    # row now standing at position ``r`` — then move each touched row
    # once: one gather and one scatter instead of one pair per swap.
    at: dict[int, int] = {}
    get = at.get
    swaps = 0
    for i in order:
        p = targets[i]
        if p != i:
            swaps += 1
            at[i], at[p] = get(p, p), get(i, i)
    if swaps:
        add_words(2 * n * swaps)
        A[list(at)] = A[list(at.values())]
    return A
