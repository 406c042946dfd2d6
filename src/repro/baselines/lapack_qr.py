"""LAPACK-style QR baselines (the paper's MKL/ACML ``dgeqr2``/``dgeqrf``).

The key structural difference from LU: the blocked-QR trailing update
``(I - V T V^T)^T C`` couples *all* active rows through the tall ``V``,
so it can only be split by column strips, not by row chunks.  On a
tall-skinny matrix there are few column strips, so ``dgeqrf``
parallelizes even worse than ``dgetrf`` — which is why the paper's
TSQR speedups (5.3x) exceed the CALU ones (2.3x).
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter
from repro.kernels.qr import geqr2, geqrf
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind

__all__ = [
    "geqr2_qr",
    "geqrf_qr",
    "build_geqr2_graph",
    "geqrf_program",
]


def geqr2_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked BLAS2 Householder QR (vendor ``dgeqr2``) of a copy of *A*.

    Returns ``(packed, tau)``.
    """
    A = np.array(A, dtype=float, order="C", subok=False)
    tau = geqr2(A)
    return A, tau


def geqrf_qr(A: np.ndarray, b: int = 64) -> tuple[np.ndarray, list[np.ndarray]]:
    """Blocked Householder QR over ``geqr2`` panels (vendor ``dgeqrf``)
    of a copy of *A*.  Returns ``(packed, Ts)``."""
    A = np.array(A, dtype=float, order="C", subok=False)
    Ts = geqrf(A, b=b)
    return A, Ts


def build_geqr2_graph(m: int, n: int, library: str = "mkl") -> TaskGraph:
    """A single monolithic BLAS2 QR task — the ``dgeqr2`` baseline."""
    graph = TaskGraph(f"geqr2{m}x{n}")
    # BLAS2 sweeps the trailing panel once per column.
    cost = Cost.of("geqr2", m, n, words=float(m) * min(m, n), library=library)
    graph.add("geqr2", TaskKind.P, cost)
    return graph


def geqrf_program(
    m: int,
    n: int,
    b: int = 64,
    library: str = "mkl",
    lookahead: int = 0,
    fork_join: bool = True,
) -> GraphProgram:
    """Fork-join blocked QR as a graph program (``dgeqrf`` baseline).

    One window per iteration: one sequential panel task (priced as
    ``geqrf_panel``, the ``geqr2`` + ``larft`` class), then one full-height ``larfb`` task per trailing
    block column — the update cannot be row-chunked.
    """
    layout = BlockLayout(m, n, b)
    prev_iter_tasks: list[int] = []

    def emit(K: int, graph: TaskGraph, tracker) -> None:
        nonlocal prev_iter_tasks
        em = Emitter(graph, tracker, None, False, K, lookahead, layout.N)
        rows_active = m - K * b
        bk = layout.panel_width(K)
        panel_tid = em.task(
            f"panel[{K}]",
            "P",
            Cost.of("geqrf_panel", rows_active, bk, library=library),
            reads=(),
            writes=layout.active_blocks(K, K),
            # Fork-join: the vendor panel barriers on the previous update.
            deps=prev_iter_tasks if fork_join else (),
        )
        prev_iter_tasks = [panel_tid]
        for J in range(K + 1, layout.N):
            j0, j1 = layout.col_range(J)
            s_tid = em.task(
                f"S[{K}]{J}",
                "S",
                Cost.of("larfb", rows_active, j1 - j0, bk, library=library),
                J=J,
                reads=[(i, K) for i in range(K, layout.M)],
                writes=layout.active_blocks(K, J),
            )
            prev_iter_tasks.append(s_tid)

    return GraphProgram(f"geqrf{m}x{n}b{b}", layout.n_panels, emit)
