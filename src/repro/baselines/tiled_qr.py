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

Symbolic only: the paper's PLASMA comparisons price this graph on the
simulated machine, so there is no numeric tiled QR to run.
"""

from __future__ import annotations

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost

__all__ = ["tiled_qr_program"]


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
