"""Sequential Householder QR kernels (compact-WY form).

The routines mirror LAPACK's so the correspondence with the paper's
Algorithm 2 is direct:

``larfg``
    Generate one elementary reflector.
``geqr2``
    Unblocked BLAS2 QR — the ``MKL_dgeqr2`` baseline of the paper.
``larft`` / ``larfb_left_t``
    Accumulate the triangular ``T`` factor and apply a block reflector
    ``Q^T = (I - V T V^T)^T`` from the left — the ``dlarfb`` trailing
    update of Algorithm 2 (task S).
``geqr3``
    Recursive QR (Elmroth & Gustavson 1998) — the paper's preferred
    sequential kernel inside TSQR tasks (``dgeqr3``); returns ``T``
    directly so tree nodes can apply the block reflector immediately.
``geqrt``
    The vendor's sequential QR: LAPACK ``?geqrt`` on the block as one
    tile, the same factors and ``T`` as ``geqr3`` to rounding — the
    TSQR/CAQR leaf, as the paper's tasks call MKL/ACML.
``geqrf``
    Blocked QR over ``geqr2`` panels — the structure of vendor ``dgeqrf``.

The TSQR/CAQR task slots run LAPACK throughout: ``geqrt`` at the
leaves, :func:`~repro.kernels.structured.lapack_tpqrt` at the tree
merges and :func:`~repro.kernels.structured.lapack_tpmqrt` at the node
updates.  ``geqr3`` and the NumPy ``tpqrt`` / ``tpmqrt`` stay as the
paper's kernels, for calibration, the tiled baselines and the replay of
an implicit ``Q``.

Factored matrices store ``R`` on and above the diagonal and the
Householder vectors ``V`` below it (unit diagonal implicit).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.analysis.flops import qr_flops
from repro.counters import add_call, add_flops

__all__ = [
    "larfg",
    "geqr2",
    "larft",
    "larfb_left_t",
    "geqr3",
    "geqrt",
    "geqrf",
    "extract_v",
]


def larfg(x: np.ndarray) -> float:
    """Generate an elementary Householder reflector, in place.

    On entry ``x`` is the column to annihilate.  On exit ``x[0]`` holds
    ``beta`` (the new diagonal entry of ``R``) and ``x[1:]`` holds the
    reflector tail ``v[1:]`` (``v[0] = 1`` implicit).  Returns ``tau``
    such that ``(I - tau v v^T) x_in = beta e_1``.
    """
    m = x.shape[0]
    add_flops(2 * m)
    if m <= 1:
        return 0.0
    alpha = float(x[0])
    xnorm = float(np.linalg.norm(x[1:]))
    if xnorm == 0.0:
        return 0.0
    beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
    tau = (beta - alpha) / beta
    x[1:] /= alpha - beta
    x[0] = beta
    return tau


def geqr2(A: np.ndarray) -> np.ndarray:
    """Unblocked Householder QR, in place. Returns ``tau`` (length ``min(m, n)``).

    BLAS2: each reflector is applied to the trailing columns with one
    matrix-vector product and one rank-1 update, ``2·n²·m`` flops total
    for a tall matrix — memory-bound, the paper's ``dgeqr2`` baseline.
    """
    m, n = A.shape
    r = min(m, n)
    add_call("geqr2")
    tau = np.zeros(r)
    for j in range(r):
        tau[j] = larfg(A[j:, j])
        if tau[j] != 0.0 and j + 1 < n:
            beta = A[j, j]
            A[j, j] = 1.0
            v = A[j:, j]
            w = v @ A[j:, j + 1 :]
            add_flops(4 * (m - j) * (n - j - 1))
            A[j:, j + 1 :] -= tau[j] * np.outer(v, w)
            A[j, j] = beta
    return tau


def larft(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Form the upper-triangular ``T`` of the compact-WY representation.

    ``V`` is ``m x k`` unit-lower-trapezoidal (explicit ones on the
    diagonal, zeros above — see :func:`extract_v`).  Returns ``T`` such
    that ``Q = H_1 H_2 ... H_k = I - V T V^T``.
    """
    m, k = V.shape
    add_call("larft")
    T = np.zeros((k, k))
    for j in range(k):
        T[j, j] = tau[j]
        if j > 0 and tau[j] != 0.0:
            # w = V[:, :j]^T v_j ; v_j is zero above row j so restrict rows.
            w = V[j:, :j].T @ V[j:, j]
            add_flops(2 * (m - j) * j + j * j)
            T[:j, j] = -tau[j] * (T[:j, :j] @ w)
    return T


def larfb_left_t(V: np.ndarray, T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply ``Q^T = (I - V T V^T)^T`` to ``C`` from the left, in place.

    This is the ``dlarfb`` call in Algorithm 2's task S: the trailing
    update after a panel (or tree-node) QR.  ``4·m·n·k`` flops to
    leading order — all BLAS3.
    """
    m, k = V.shape
    n = C.shape[1]
    if C.shape[0] != m or T.shape != (k, k):
        raise ValueError(f"larfb shape mismatch: V{V.shape}, T{T.shape}, C{C.shape}")
    add_call("larfb")
    add_flops(4 * m * n * k + k * k * n)
    W = V.T @ C  # k x n
    W = T.T @ W
    C -= V @ W
    return C


def geqr3(A: np.ndarray, threshold: int = 8) -> np.ndarray:
    """Recursive QR (Elmroth-Gustavson), in place. Returns the ``n x n`` ``T``.

    Splits the columns in half, factors the left half recursively,
    applies its block reflector to the right half, factors the trailing
    part, and merges the two ``T`` factors:
    ``T_12 = -T_1 (V_1^T V_2) T_2``.  Almost all flops become BLAS3,
    which is why the paper picks it ("the best results are obtained by
    using recursive ... QR [10]").
    """
    m, n = A.shape
    if m < n:
        raise ValueError(f"geqr3 requires m >= n, got {A.shape}")
    add_call("geqr3")
    if n <= threshold:
        tau = geqr2(A)
        return larft(extract_v(A), tau)
    n1 = n // 2
    T1 = geqr3(A[:, :n1], threshold)
    V1 = extract_v(A[:, :n1])
    larfb_left_t(V1, T1, A[:, n1:])
    T2 = geqr3(A[n1:, n1:], threshold)
    V2 = extract_v(A[n1:, n1:])
    n2 = n - n1
    # T12 = -T1 (V1^T V2) T2, using only the rows where V2 is nonzero.
    add_flops(2 * (m - n1) * n1 * n2 + 2 * n1 * n1 * n2 + 2 * n1 * n2 * n2)
    T12 = -T1 @ (V1[n1:].T @ V2) @ T2
    T = np.zeros((n, n))
    T[:n1, :n1] = T1
    T[:n1, n1:] = T12
    T[n1:, n1:] = T2
    return T


def geqrt(A: np.ndarray) -> np.ndarray:
    """LAPACK ``?geqrt`` of the whole block as one tile, in place.
    Returns the ``k x k`` ``T`` (``k = min(m, n)``).

    The routine is picked by dtype (``sgeqrt`` for a float32 block), so
    the factors keep the block's precision; the call releases the GIL.
    Counted as one call of the closed-form ``qr_flops(m, n)``.
    """
    m, n = A.shape
    add_call("geqrt")
    add_flops(qr_flops(m, n))
    (fn,) = get_lapack_funcs(("geqrt",), (A,))
    packed, T, info = fn(min(m, n), A)
    if info != 0:
        raise ValueError(f"{fn.typecode}geqrt: illegal argument {-info}")
    A[...] = packed
    return T


def geqrf(A: np.ndarray, b: int = 64) -> list[np.ndarray]:
    """Blocked Householder QR, in place. Returns the per-panel ``T`` factors.

    The reference structure of vendor ``dgeqrf``: factor a ``b``-wide
    panel with the BLAS2 ``geqr2``, accumulate ``T``, apply the block
    reflector to the trailing columns with BLAS3 ``larfb``.
    """
    m, n = A.shape
    r = min(m, n)
    add_call("geqrf")
    Ts: list[np.ndarray] = []
    for k in range(0, r, b):
        bk = min(b, r - k)
        panel_view = A[k:, k : k + bk]
        tau = geqr2(panel_view)
        V = extract_v(panel_view)
        T = larft(V, tau)
        Ts.append(T)
        if k + bk < n:
            larfb_left_t(V, T, A[k:, k + bk :])
    return Ts


def extract_v(panel: np.ndarray) -> np.ndarray:
    """Copy the unit-lower-trapezoidal ``V`` out of a factored panel:
    one block copy, then only its ``k x k`` head is masked."""
    m, n = panel.shape
    k = min(m, n)
    V = panel[:, :k].copy()
    np.copyto(V[:k], 0.0, where=~np.tri(k, dtype=bool, k=-1))
    np.fill_diagonal(V, 1.0)
    return V
