"""PLASMA-style tiled LU with incremental pivoting.

The "tiled algorithms" baseline of the paper (Buttari et al. [5],
PLASMA ``dgetrf``): the matrix is cut into ``nb x nb`` tiles and the
factorization proceeds per tile column with four kernels —

* ``getrf_tile`` — LU with partial pivoting *inside* the diagonal tile;
* ``gessm``      — apply its pivots + ``L`` to a tile on the right;
* ``tstrf``      — LU of the updated ``U_kk`` stacked on a tile below,
  pivoting only across that tile pair (incremental pivoting);
* ``ssssm``      — replay a ``tstrf`` elimination on a tile pair to
  the right.

This removes the panel from the critical path (the paper's
"removing the panel factorization from the critical path" reference)
at the price of weaker pivoting: the growth factor grows with the
number of tiles, which the stability benchmark contrasts with CALU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter
from repro.kernels.blas import gemm, laswp, trsm_llnu
from repro.kernels.lu import getf2
from repro.kernels.structured import TstrfOps, ssssm_apply, tstrf
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost

__all__ = ["TiledLU", "tiled_lu", "tiled_lu_program"]


@dataclass
class TiledLU:
    """Factorization state of :func:`tiled_lu`.

    ``packed`` holds the tiles in place (``U`` in the global upper
    triangle, tile-local multipliers elsewhere); solving replays the
    recorded per-tile eliminations — incremental pivoting has no single
    global row permutation.
    """

    packed: np.ndarray
    nb: int
    piv: dict[int, np.ndarray] = field(default_factory=dict)
    ops: dict[tuple[int, int], TstrfOps] = field(default_factory=dict)
    # L_kk captured right after the diagonal-tile LU: the later tstrf
    # chain swaps full tile rows and overwrites the multipliers stored
    # below the diagonal of the tile.
    lkk: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def layout(self) -> BlockLayout:
        m, n = self.packed.shape
        return BlockLayout(m, n, self.nb)

    @property
    def U(self) -> np.ndarray:
        """The final upper-triangular factor."""
        r = min(self.packed.shape)
        return np.triu(self.packed[:r, :])

    def forward_apply(self, rhs: np.ndarray) -> np.ndarray:
        """Replay the elimination on *rhs*: returns ``y`` with ``U x = y``."""
        lay = self.layout
        m = lay.m
        rhs = np.asarray(rhs, dtype=float)
        y = rhs.reshape(m, -1).copy()
        for k in range(lay.n_panels):
            r0, r1 = lay.row_range(k)
            ck = lay.col_range(k)[1] - lay.col_range(k)[0]
            yk = y[r0:r1]
            laswp(yk, self.piv[k])
            trsm_llnu(self.lkk[k][:ck], yk[:ck])
            if r1 - r0 > ck:
                # Tall diagonal row tile (m > n tail): the rows below the
                # square part were eliminated by the tile LU itself.
                gemm(yk[ck:], self.lkk[k][ck:], yk[:ck])
            for i in range(k + 1, lay.M):
                s0, s1 = lay.row_range(i)
                ssssm_apply(self.ops[(i, k)], yk[:ck], y[s0:s1])
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a square factorization."""
        m, n = self.packed.shape
        if m != n:
            raise ValueError(f"solve requires a square factorization, got {self.packed.shape}")
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        y = self.forward_apply(rhs)
        x = scipy.linalg.solve_triangular(self.packed, y, lower=False)
        return x[:, 0] if squeeze else x


def _unit_lower(B: np.ndarray) -> np.ndarray:
    r = min(B.shape)
    L = np.tril(B[:, :r], -1)
    np.fill_diagonal(L, 1.0)
    return L


def tiled_lu(A: np.ndarray, nb: int = 64) -> TiledLU:
    """Factor a copy of ``A`` (``m >= n``) with PLASMA-style incremental pivoting."""
    A = np.array(A, dtype=float, order="C", subok=False)
    m, n = A.shape
    if m < n:
        raise ValueError(f"tiled_lu requires m >= n, got {A.shape}")
    lay = BlockLayout(m, n, nb)
    out = TiledLU(packed=A, nb=nb)
    for k in range(lay.n_panels):
        r0, r1 = lay.row_range(k)
        c0, c1 = lay.col_range(k)
        ck = c1 - c0
        akk = A[r0:r1, c0:c1]
        out.piv[k] = getf2(akk)
        out.lkk[k] = _unit_lower(akk)
        for j in range(k + 1, lay.N):
            j0, j1 = lay.col_range(j)
            tile = A[r0:r1, j0:j1]
            laswp(tile, out.piv[k])
            trsm_llnu(out.lkk[k][:ck], tile[:ck])
            if r1 - r0 > ck:
                gemm(tile[ck:], out.lkk[k][ck:], tile[:ck])
        for i in range(k + 1, lay.M):
            s0, s1 = lay.row_range(i)
            ops = tstrf(akk[:ck], A[s0:s1, c0:c1])
            out.ops[(i, k)] = ops
            for j in range(k + 1, lay.N):
                j0, j1 = lay.col_range(j)
                ssssm_apply(ops, A[r0 : r0 + ck, j0:j1], A[s0:s1, j0:j1])
    return out


def tiled_lu_program(
    m: int,
    n: int,
    nb: int = 200,
    library: str = "plasma",
    lookahead: int = 1,
) -> GraphProgram:
    """Symbolic PLASMA tiled LU as a graph program (one window per
    tile column) for the simulator."""
    lay = BlockLayout(m, n, nb)

    def emit(k: int, graph: TaskGraph, tracker) -> None:
        em = Emitter(graph, tracker, None, False, k, lookahead, lay.N)
        rk = lay.row_range(k)[1] - lay.row_range(k)[0]
        ck = lay.col_range(k)[1] - lay.col_range(k)[0]
        widths = [(j, lay.col_range(j)[1] - lay.col_range(j)[0]) for j in range(k + 1, lay.N)]
        em.task(
            f"getrf[{k}]",
            "P",
            Cost.of("getrf_tile", rk, ck, library=library),
            reads=(),
            writes=[(k, k)],
        )
        for j, cj in widths:
            em.task(
                f"gessm[{k},{j}]",
                "U",
                Cost.of("gessm", rk, cj, ck, library=library),
                J=j,
                reads=[(k, k), (k, j)],
                writes=[(k, j)],
            )
        for i in range(k + 1, lay.M):
            ri = lay.row_range(i)[1] - lay.row_range(i)[0]
            # Reads and updates the running U_kk: serial chain down column k.
            em.task(
                f"tstrf[{i},{k}]",
                "P",
                Cost.of("tstrf", ri, ck, ck, library=library),
                reads=[(k, k), (i, k)],
                writes=[(k, k), (i, k)],
            )
            for j, cj in widths:
                em.task(
                    f"ssssm[{i},{k},{j}]",
                    "S",
                    Cost.of("ssssm", ri, cj, ck, library=library),
                    J=j,
                    reads=[(i, k), (k, j), (i, j)],
                    writes=[(k, j), (i, j)],
                )

    return GraphProgram(f"tiled_lu{m}x{n}nb{nb}", lay.n_panels, emit)
