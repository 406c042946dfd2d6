"""Structured kernels for reduction trees and tiled algorithms.

Two families:

Triangular-pentagonal QR (``tpqrt`` / ``tpmqrt_left_t``)
    QR of a ``b x b`` upper-triangular tile stacked on top of an
    ``m x b`` block, exploiting the identity structure of the top part
    of the Householder vectors (``V = [I; V_b]``).  With a dense bottom
    block this is PLASMA's ``DTSQRT``; with a triangular bottom block
    (``bottom_triangular=True``) it is the ``[R_i; R_j]`` merge kernel
    of the TSQR reduction tree (PLASMA's ``DTTQRT``).  The same merge
    and its update on LAPACK's ``?tpqrt`` / ``?tpmqrt``
    (``lapack_tpqrt`` / ``lapack_tpmqrt``) are the vendor's tree
    kernels, the ones the default ``geqrt`` kernel set runs.

Incremental-pivoting LU (``tstrf`` / ``ssssm_apply``)
    LU of a ``b x b`` upper-triangular tile stacked on an ``m x b``
    block with row pivoting *across the two tiles* — PLASMA's
    ``DTSTRF``; the recorded elimination is replayed on right-hand-side
    tile pairs by ``ssssm_apply`` (PLASMA's ``DSSSSM``).  This is the
    pivoting scheme whose weaker stability (growth factor grows with
    the number of tiles) the paper contrasts with CALU's ca-pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.analysis.flops import tpmqrt_flops, tpqrt_tt_flops
from repro.counters import add_call, add_comparisons, add_flops

__all__ = [
    "tpqrt",
    "tpmqrt_left_t",
    "lapack_tpqrt",
    "lapack_tpmqrt",
    "tstrf",
    "ssssm_apply",
    "TstrfOps",
]


def tpqrt(R: np.ndarray, B: np.ndarray, bottom_triangular: bool = False) -> np.ndarray:
    """QR of ``[R; B]`` with ``R`` upper triangular, in place. Returns ``T``.

    On exit ``R`` holds the new ``R`` factor and ``B`` holds the bottom
    parts ``V_b`` of the Householder vectors (the top parts form the
    identity and are implicit).  ``Q = I - [I; V_b] T [I; V_b]^T``.

    Parameters
    ----------
    R : (b, b) upper triangular, overwritten with the merged ``R``.
    B : (m, b); dense (``DTSQRT``) or upper triangular
        (``bottom_triangular=True``, the TSQR tree-node ``DTTQRT``
        case, where column ``j`` of ``B`` only has rows ``0..j``).
    """
    b = R.shape[0]
    m = B.shape[0]
    if R.shape != (b, b) or B.shape[1] != b:
        raise ValueError(f"tpqrt shape mismatch: R{R.shape}, B{B.shape}")
    add_call("tpqrt_tt" if bottom_triangular else "tpqrt_ts")
    tau = np.zeros(b)
    T = np.zeros((b, b))
    for j in range(b):
        nr = min(j + 1, m) if bottom_triangular else m
        alpha = float(R[j, j])
        u = B[:nr, j]
        xnorm = float(np.linalg.norm(u))
        add_flops(2 * nr)
        if xnorm == 0.0:
            T[j, j] = 0.0
            continue
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        tau[j] = (beta - alpha) / beta
        u /= alpha - beta
        R[j, j] = beta
        if j + 1 < b:
            # w = R[j, j+1:] + u^T B[:nr, j+1:]; reflect row j of R and B.
            w = R[j, j + 1 :] + u @ B[:nr, j + 1 :]
            add_flops(4 * nr * (b - j - 1))
            R[j, j + 1 :] -= tau[j] * w
            B[:nr, j + 1 :] -= tau[j] * np.outer(u, w)
        # Accumulate column j of T: T[:j, j] = -tau_j T[:j, :j] (V_b[:, :j]^T v_j)
        if j > 0 and tau[j] != 0.0:
            prev = B[:nr, :j]
            if bottom_triangular:
                # Reflector i has a tail of length i+1; entries of the
                # storage below that (strictly lower triangular) are not
                # part of V_b and may hold unrelated data when operating
                # on in-place views — mask them out.
                prev = np.triu(prev)
            w = prev.T @ u
            add_flops(2 * nr * j + j * j)
            T[:j, j] = -tau[j] * (T[:j, :j] @ w)
        T[j, j] = tau[j]
    return T


def tpmqrt_left_t(
    Vb: np.ndarray,
    T: np.ndarray,
    Ctop: np.ndarray,
    Cbot: np.ndarray,
    transpose: bool = True,
) -> None:
    """Apply ``Q^T`` (or ``Q`` with ``transpose=False``) of a :func:`tpqrt`
    factorization to ``[Ctop; Cbot]`` in place.

    With ``V = [I; V_b]``: ``W = T^T (Ctop + V_b^T Cbot)`` (or ``T W``
    for ``Q``), then ``Ctop -= W`` and ``Cbot -= V_b W``.  This is the
    task-S kernel of the TSQR tree levels in Algorithm 2 and PLASMA's
    ``DTSMQR``.
    """
    m, b = Vb.shape
    n = Ctop.shape[1]
    if Ctop.shape != (b, n) or Cbot.shape != (m, n) or T.shape != (b, b):
        raise ValueError(
            f"tpmqrt shape mismatch: Vb{Vb.shape}, T{T.shape}, Ctop{Ctop.shape}, Cbot{Cbot.shape}"
        )
    add_call("tpmqrt")
    add_flops(4 * m * n * b + b * b * n + b * n)
    W = Ctop + Vb.T @ Cbot
    W = (T.T @ W) if transpose else (T @ W)
    Ctop -= W
    Cbot -= Vb @ W


def lapack_tpqrt(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """LAPACK ``?tpqrt`` of ``[R; B]``, both ``b x b`` upper triangular
    (the TSQR merge: ``l = nb = b``), in place.  Returns ``T``.

    The factors of ``tpqrt(R, B, bottom_triangular=True)`` to rounding:
    ``R``'s upper triangle becomes the merged ``R``, ``B``'s holds
    ``V_b``, and ``Q = I - [I; V_b] T [I; V_b]^T``.  Only the upper
    triangles are written back — the strictly lower storage of both
    blocks is not part of the merge and may hold a leaf's ``V``.  The
    routine is picked by dtype (``stpqrt`` for float32 blocks) and the
    call releases the GIL.  Counted as one call of ``tpqrt_tt_flops(b)``.
    """
    b = R.shape[0]
    if R.shape != (b, b) or B.shape != (b, b):
        raise ValueError(f"lapack_tpqrt shape mismatch: R{R.shape}, B{B.shape}")
    add_call("lapack_tpqrt")
    add_flops(tpqrt_tt_flops(b))
    (fn,) = get_lapack_funcs(("tpqrt",), (R, B))
    r, vb, T, info = fn(b, b, R, B)
    if info != 0:
        raise ValueError(f"{fn.typecode}tpqrt: illegal argument {-info}")
    upper = ~np.tri(b, k=-1, dtype=bool)
    np.copyto(R, r, where=upper)
    np.copyto(B, vb, where=upper)
    return T


def lapack_tpmqrt(Vb: np.ndarray, T: np.ndarray, Ctop: np.ndarray, Cbot: np.ndarray) -> None:
    """Apply ``Q^T`` of a TSQR merge to ``[Ctop; Cbot]`` in place: LAPACK
    ``?tpmqrt`` (``side="L"``, ``trans="T"``, ``l = b``) over the
    ``b x b`` upper-triangular ``V_b`` of :func:`lapack_tpqrt` or of
    :func:`tpqrt` — the same ``Q^T`` as :func:`tpmqrt_left_t` to
    rounding.  Counted as one call of ``tpmqrt_flops(b, n, b)``.
    """
    b = Vb.shape[0]
    n = Ctop.shape[1]
    if Vb.shape != (b, b) or T.shape != (b, b) or Ctop.shape != (b, n) or Cbot.shape != (b, n):
        raise ValueError(
            f"lapack_tpmqrt shape mismatch: Vb{Vb.shape}, T{T.shape}, "
            f"Ctop{Ctop.shape}, Cbot{Cbot.shape}"
        )
    add_call("lapack_tpmqrt")
    add_flops(tpmqrt_flops(b, n, b))
    (fn,) = get_lapack_funcs(("tpmqrt",), (Vb, T, Ctop, Cbot))
    top, bot, info = fn(b, Vb, T, Ctop, Cbot, side="L", trans="T")
    if info != 0:
        raise ValueError(f"{fn.typecode}tpmqrt: illegal argument {-info}")
    Ctop[...] = top
    Cbot[...] = bot


@dataclass
class TstrfOps:
    """Recorded elimination of one :func:`tstrf` call.

    ``swaps[j]`` is the row of the bottom tile swapped with row ``j`` of
    the top tile before step ``j`` (or ``-1`` for no swap); ``L[:, j]``
    is the multiplier column applied at step ``j``, captured at the time
    of the step so replay on right-hand sides is exact.
    """

    swaps: np.ndarray
    L: np.ndarray
    pivot_rows: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def width(self) -> int:
        return len(self.swaps)


def tstrf(U: np.ndarray, A: np.ndarray) -> TstrfOps:
    """Incremental-pivoting LU of ``[U; A]`` with ``U`` upper triangular, in place.

    At step ``j`` the pivot is chosen among ``U[j, j]`` and column ``j``
    of ``A`` (rows of ``U`` below the diagonal are structurally zero in
    column ``j`` and never participate).  If the winner lives in ``A``,
    the full rows are swapped across the two tiles.  On exit the
    *upper triangle* of ``U`` holds the updated factor (below the
    diagonal, rows swapped in from ``A`` carry stale multiplier values,
    so only ``triu(U)`` is meaningful) and ``A`` holds the multiplier
    columns; the returned :class:`TstrfOps` replays the elimination on
    right-hand sides via :func:`ssssm_apply`.
    """
    b = U.shape[0]
    m = A.shape[0]
    if U.shape != (b, b) or A.shape[1] != b:
        raise ValueError(f"tstrf shape mismatch: U{U.shape}, A{A.shape}")
    add_call("tstrf")
    swaps = np.full(b, -1, dtype=np.int64)
    L = np.zeros((m, b))
    for j in range(b):
        add_comparisons(m)
        col = A[:, j]
        i = int(np.argmax(np.abs(col))) if m else 0
        if m and abs(col[i]) > abs(U[j, j]):
            swaps[j] = i
            tmp = U[j].copy()
            U[j] = A[i]
            A[i] = tmp
        piv = U[j, j]
        if piv == 0.0:
            if np.any(A[:, j] != 0.0):
                raise ZeroDivisionError(f"tstrf: zero pivot at step {j}")
            continue
        add_flops(m + 2 * m * (b - j - 1))
        A[:, j] /= piv
        L[:, j] = A[:, j]
        if j + 1 < b:
            A[:, j + 1 :] -= np.outer(A[:, j], U[j, j + 1 :])
    return TstrfOps(swaps=swaps, L=L)


def ssssm_apply(ops: TstrfOps, Ctop: np.ndarray, Cbot: np.ndarray) -> None:
    """Replay a :func:`tstrf` elimination on the tile pair ``[Ctop; Cbot]``.

    PLASMA's ``DSSSSM``: interleaved row swaps (across the two tiles)
    and rank-1 Schur updates.  In place.
    """
    b = ops.width
    m, n = Cbot.shape
    if Ctop.shape[0] != b or Ctop.shape[1] != n:
        raise ValueError(f"ssssm shape mismatch: ops width {b}, Ctop{Ctop.shape}, Cbot{Cbot.shape}")
    add_call("ssssm")
    add_flops(2 * m * n * b)
    for j in range(b):
        i = int(ops.swaps[j])
        if i >= 0:
            tmp = Ctop[j].copy()
            Ctop[j] = Cbot[i]
            Cbot[i] = tmp
        Cbot -= np.outer(ops.L[:, j], Ctop[j])
