"""LAPACK-style LU baselines (the paper's MKL/ACML ``dgetf2``/``dgetrf``).

Numeric drivers reuse the sequential kernels; the graph builders model
how a vendor library executes on a multicore machine:

* ``getf2`` — one monolithic BLAS2 task (vendor ``dgetf2`` is
  effectively sequential and memory-bound — the paper's worst
  performer on tall-skinny panels);
* ``getrf`` — fork-join blocked right-looking LU: a *sequential* panel
  task per iteration (this is the point the paper attacks: the panel
  is on the critical path and classic libraries do not parallelize it
  well), followed by row-chunked, column-stripped ``trsm``/``gemm``
  update tasks that scale across cores.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter
from repro.kernels.lu import getf2, getrf
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind

__all__ = [
    "getf2_lu",
    "getrf_lu",
    "build_getf2_graph",
    "getrf_program",
]


def getf2_lu(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked BLAS2 LU (vendor ``dgetf2``) of a copy of *A*.
    Returns ``(lu, piv)``."""
    A = np.array(A, dtype=float, order="C", subok=False)
    piv = getf2(A)
    return A, piv


def getrf_lu(A: np.ndarray, b: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Blocked right-looking LU over ``getf2`` panels (vendor ``dgetrf``)
    of a copy of *A*.  Returns ``(lu, piv)``."""
    A = np.array(A, dtype=float, order="C", subok=False)
    piv = getrf(A, b=b)
    return A, piv


def build_getf2_graph(m: int, n: int, library: str = "mkl") -> TaskGraph:
    """A single monolithic BLAS2 LU task — the ``dgetf2`` baseline."""
    graph = TaskGraph(f"getf2{m}x{n}")
    # BLAS2 sweeps the trailing panel once per column.
    cost = Cost.of("getf2", m, n, words=float(m) * min(m, n), library=library)
    graph.add("getf2", TaskKind.P, cost)
    return graph


def getrf_program(
    m: int,
    n: int,
    b: int = 64,
    row_chunks: int = 8,
    library: str = "mkl",
    lookahead: int = 0,
    fork_join: bool = True,
) -> GraphProgram:
    """Fork-join blocked LU as a graph program (``dgetrf`` baseline).

    One window per iteration: one sequential panel task (priced as
    ``getrf_panel``: an internally blocked vendor panel, better than
    raw BLAS2 ``getf2`` but still serial and on the critical path),
    then per trailing block column a pivot-apply + ``trsm`` task and
    ``row_chunks`` ``gemm`` tasks (vendor LU updates partition in both
    dimensions, so the update scales; only the panel is serial).
    """
    layout = BlockLayout(m, n, b)
    prev_iter_tasks: list[int] = []

    def emit(K: int, graph: TaskGraph, tracker) -> None:
        nonlocal prev_iter_tasks
        em = Emitter(graph, tracker, None, False, K, lookahead, layout.N)
        k0 = K * b
        bk = layout.panel_width(K)
        panel_tid = em.task(
            f"panel[{K}]",
            "P",
            Cost.of("getrf_panel", m - k0, bk, library=library),
            reads=(),
            writes=layout.active_blocks(K, K),
            # Fork-join: classic libraries barrier between iterations —
            # the panel cannot overlap the previous trailing update.
            deps=prev_iter_tasks if fork_join else (),
        )
        prev_iter_tasks = [panel_tid]
        chunks = layout.panel_chunks(K, row_chunks)
        for J in range(K + 1, layout.N):
            j0, j1 = layout.col_range(J)
            nc = j1 - j0
            u_tid = em.task(
                f"U[{K}]{J}",
                "U",
                # The pivot apply rides on the solve: nc columns, both ways.
                Cost.of("trsm_llnu", bk, nc, bk, extra_words=2.0 * bk * nc, library=library),
                J=J,
                reads=[(K, K)],
                writes=layout.active_blocks(K, J),
            )
            prev_iter_tasks.append(u_tid)
            for chunk in chunks:
                r0 = max(chunk.r0, k0 + bk)
                if r0 >= chunk.r1:
                    continue
                lblocks = range(r0 // b, chunk.b1)
                s_tid = em.task(
                    f"S[{K}]{chunk.index},{J}",
                    "S",
                    Cost.of("gemm", chunk.r1 - r0, nc, bk, library=library),
                    J=J,
                    reads=[(i, K) for i in lblocks] + [(K, J)],
                    writes=[(i, J) for i in lblocks],
                    deps=[u_tid],
                )
                prev_iter_tasks.append(s_tid)

    return GraphProgram(f"getrf{m}x{n}b{b}", layout.n_panels, emit)
