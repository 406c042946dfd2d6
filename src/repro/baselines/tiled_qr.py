"""PLASMA-style tiled QR (Buttari et al.).

The ``PLASMA_dgeqrf`` baseline: tiles of size ``nb``, four kernels —

* ``geqrt``  — QR of the diagonal tile (WY form);
* ``unmqr``  — apply its block reflector to a tile on the right;
* ``tsqrt``  — QR of the updated ``R_kk`` stacked on a *dense* tile
  below (a flat-tree elimination down the tile column);
* ``tsmqr``  — apply a ``tsqrt`` reflector to a tile pair on the right.

Structurally this is CAQR with a flat tree *per tile column* and tile
granularity ``nb`` — lots of small tasks that pipeline well for big
square matrices (where the paper shows PLASMA overtaking CAQR as ``n``
grows) but pay per-task overheads and low kernel efficiency on
tall-skinny matrices (where TSQR wins by up to 6.7x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter
from repro.kernels.qr import extract_v, geqr2, larfb_left_t, larft
from repro.kernels.structured import tpmqrt_left_t, tpqrt
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost

__all__ = ["TiledQR", "tiled_qr", "tiled_qr_program"]


@dataclass
class _LeafOp:
    r0: int
    r1: int
    V: np.ndarray
    T: np.ndarray


@dataclass
class _TsOp:
    top0: int
    bot0: int
    bot1: int
    r: int
    Vb: np.ndarray
    T: np.ndarray


@dataclass
class TiledQR:
    """Factorization state of :func:`tiled_qr` (implicit ``Q``)."""

    packed: np.ndarray
    nb: int
    ops: list[_LeafOp | _TsOp] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.packed.shape[0]

    @property
    def n(self) -> int:
        return self.packed.shape[1]

    @property
    def R(self) -> np.ndarray:
        r = min(self.packed.shape)
        return np.triu(self.packed[:r, :])

    def apply_qt(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q^T C``."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        for op in self.ops:
            if isinstance(op, _LeafOp):
                larfb_left_t(op.V, op.T, W[op.r0 : op.r1])
            else:
                tpmqrt_left_t(op.Vb, op.T, W[op.top0 : op.top0 + op.r], W[op.bot0 : op.bot1])
        return W[:, 0] if squeeze else W

    def apply_q(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q C``."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        for op in reversed(self.ops):
            if isinstance(op, _LeafOp):
                Cv = W[op.r0 : op.r1]
                Cv -= op.V @ (op.T @ (op.V.T @ Cv))
            else:
                tpmqrt_left_t(
                    op.Vb,
                    op.T,
                    W[op.top0 : op.top0 + op.r],
                    W[op.bot0 : op.bot1],
                    transpose=False,
                )
        return W[:, 0] if squeeze else W

    def q_explicit(self) -> np.ndarray:
        r = min(self.packed.shape)
        E = np.zeros((self.m, r))
        np.fill_diagonal(E, 1.0)
        return self.apply_q(E)

    def solve_ls(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - rhs||`` (``m >= n``)."""
        if self.m < self.n:
            raise ValueError("solve_ls requires m >= n")
        y = self.apply_qt(rhs)
        return scipy.linalg.solve_triangular(self.R, y[: self.n])


def tiled_qr(A: np.ndarray, nb: int = 64) -> TiledQR:
    """Factor a copy of ``A`` (``m >= n``) with PLASMA-style tiled QR."""
    A = np.array(A, dtype=float, order="C", subok=False)
    m, n = A.shape
    if m < n:
        raise ValueError(f"tiled_qr requires m >= n, got {A.shape}")
    lay = BlockLayout(m, n, nb)
    out = TiledQR(packed=A, nb=nb)
    for k in range(lay.n_panels):
        r0, r1 = lay.row_range(k)
        c0, c1 = lay.col_range(k)
        akk = A[r0:r1, c0:c1]
        tau = geqr2(akk)
        Tkk = larft(extract_v(akk), tau)
        Vkk = extract_v(akk)
        out.ops.append(_LeafOp(r0=r0, r1=r1, V=Vkk, T=Tkk))
        for j in range(k + 1, lay.N):
            j0, j1 = lay.col_range(j)
            larfb_left_t(Vkk, Tkk, A[r0:r1, j0:j1])
        ck = c1 - c0
        for i in range(k + 1, lay.M):
            s0, s1 = lay.row_range(i)
            # Pair the square R_kk (top ck rows) with the dense tile below.
            Tik = tpqrt(akk[:ck], A[s0:s1, c0:c1])
            Vb = A[s0:s1, c0:c1].copy()
            out.ops.append(_TsOp(top0=r0, bot0=s0, bot1=s1, r=ck, Vb=Vb, T=Tik))
            for j in range(k + 1, lay.N):
                j0, j1 = lay.col_range(j)
                tpmqrt_left_t(Vb, Tik, A[r0 : r0 + ck, j0:j1], A[s0:s1, j0:j1])
    return out


def tiled_qr_program(
    m: int,
    n: int,
    nb: int = 200,
    library: str = "plasma",
    lookahead: int = 1,
) -> GraphProgram:
    """Symbolic PLASMA tiled QR as a graph program (one window per
    tile column) for the simulator."""
    lay = BlockLayout(m, n, nb)

    def emit(k: int, graph: TaskGraph, tracker) -> None:
        em = Emitter(graph, tracker, None, False, k, lookahead, lay.N)
        rk = lay.row_range(k)[1] - lay.row_range(k)[0]
        ck = lay.col_range(k)[1] - lay.col_range(k)[0]
        widths = [(j, lay.col_range(j)[1] - lay.col_range(j)[0]) for j in range(k + 1, lay.N)]
        em.task(
            f"geqrt[{k}]",
            "P",
            Cost.of("geqrt_tile", rk, ck, library=library),
            reads=(),
            writes=[(k, k)],
        )
        # Every unmqr[k,*] before any tsqrt[*,k]: they read tile (k, k),
        # which the tsqrt chain overwrites (the WAR edge).
        for j, cj in widths:
            em.task(
                f"unmqr[{k},{j}]",
                "S",
                Cost.of("larfb", rk, cj, ck, library=library),
                J=j,
                reads=[(k, k), (k, j)],
                writes=[(k, j)],
            )
        for i in range(k + 1, lay.M):
            ri = lay.row_range(i)[1] - lay.row_range(i)[0]
            em.task(
                f"tsqrt[{i},{k}]",
                "P",
                Cost.of("tpqrt_ts", ri, ck, ck, library=library),
                reads=[(k, k), (i, k)],
                writes=[(k, k), (i, k)],
            )
            for j, cj in widths:
                em.task(
                    f"tsmqr[{i},{k},{j}]",
                    "S",
                    Cost.of("tsmqr_tile", ri, cj, ck, library=library),
                    J=j,
                    reads=[(i, k), (k, j), (i, j)],
                    writes=[(k, j), (i, j)],
                )

    return GraphProgram(f"tiled_qr{m}x{n}nb{nb}", lay.n_panels, emit)
