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

from repro.analysis.flops import larfb_flops, qr_flops
from repro.core.layout import BlockLayout
from repro.core.priorities import task_priority
from repro.kernels.qr import geqr2, geqrf
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind

__all__ = [
    "geqr2_qr",
    "geqrf_qr",
    "build_geqr2_graph",
    "geqrf_program",
]


def geqr2_qr(A: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked BLAS2 Householder QR (vendor ``dgeqr2``).

    Returns ``(packed, tau)``.
    """
    A = np.array(A, dtype=float, order="C", copy=not overwrite, subok=False)
    tau = geqr2(A)
    return A, tau


def geqrf_qr(
    A: np.ndarray, b: int = 64, panel: str = "geqr2", overwrite: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Blocked Householder QR (vendor ``dgeqrf``). Returns ``(packed, Ts)``."""
    A = np.array(A, dtype=float, order="C", copy=not overwrite, subok=False)
    Ts = geqrf(A, b=b, panel=panel)
    return A, Ts


def build_geqr2_graph(m: int, n: int, library: str = "mkl") -> TaskGraph:
    """A single monolithic BLAS2 QR task — the ``dgeqr2`` baseline."""
    graph = TaskGraph(f"geqr2{m}x{n}")
    r = min(m, n)
    graph.add(
        "geqr2",
        TaskKind.P,
        Cost(
            "geqr2",
            m=m,
            n=n,
            flops=qr_flops(m, n),
            words=float(m) * r,
            library=library,
        ),
    )
    return graph


def geqrf_program(
    m: int,
    n: int,
    b: int = 64,
    library: str = "mkl",
    lookahead: int = 0,
    panel_kernel: str = "geqrf_panel",
    fork_join: bool = True,
) -> GraphProgram:
    """Fork-join blocked QR as a streaming program (``dgeqrf`` baseline).

    One window per iteration: one sequential panel task (``geqr2`` +
    ``larft`` class), then one full-height ``larfb`` task per trailing
    block column — the update cannot be row-chunked.
    """
    layout = BlockLayout(m, n, b)
    N = layout.N
    prev_iter_tasks: list[int] = []

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        nonlocal prev_iter_tasks
        K = window
        k0 = K * b
        bk = layout.panel_width(K)
        rows_active = m - k0
        panel_tid = tracker.add_task(
            graph,
            f"panel[{K}]",
            TaskKind.P,
            Cost(
                panel_kernel,
                m=rows_active,
                n=bk,
                flops=qr_flops(rows_active, bk),
                words=2.0 * rows_active * bk,
                library=library,
            ),
            writes=layout.active_blocks(K, K),
            # Fork-join: the vendor panel barriers on the previous update.
            extra_deps=prev_iter_tasks if fork_join else (),
            priority=task_priority("P", K, lookahead=lookahead, n_cols=N),
            iteration=K,
        )
        prev_iter_tasks = [panel_tid]
        for J in range(K + 1, N):
            j0, j1 = layout.col_range(J)
            nc = j1 - j0
            s_tid = tracker.add_task(
                graph,
                f"S[{K}]{J}",
                TaskKind.S,
                Cost(
                    "larfb",
                    m=rows_active,
                    n=nc,
                    k=bk,
                    flops=larfb_flops(rows_active, nc, bk),
                    words=2.0 * rows_active * nc + rows_active * bk,
                    library=library,
                ),
                reads=[(i, K) for i in range(K, layout.M)],
                writes=layout.active_blocks(K, J),
                priority=task_priority("S", K, J, lookahead=lookahead, n_cols=N),
                iteration=K,
            )
            prev_iter_tasks.append(s_tid)

    return GraphProgram(
        f"geqrf{m}x{n}b{b}", layout.n_panels, emit, lookahead=lookahead
    )
