"""One panel loop: the K-loop of Algorithms 1 and 2, written once.

CALU and CAQR are the same loop — for each panel ``K``: a reduction
tree over the panel's row chunks (tasks P), then per trailing column
segment the updates it drives (L/U/S), under look-ahead — and a
standalone TSLU/TSQR panel is that loop over ``BlockLayout(m, n, b=n)``,
where no trailing segment exists.  :func:`panel_program` owns what the
two share: the numeric/symbolic fork and its defaults, the chunking
(:func:`merged_chunks`), the trailing segments, the ``C[K]`` checkpoint
hook, the windows and the :class:`~repro.runtime.program.GraphProgram`;
:class:`Emitter` is the one form a task takes.  An algorithm supplies
its steps and its per-panel state.

Emission order is behaviour — task ids and a resume's skipped ranges
depend on it: the panel step's tasks (P, then CALU's L), then per segment that segment's
updates, then ``C[K]``.

Guards follow the binding, not a flag: a guard that reads matrix blocks
is a *counted load* over a streamed panel, so those (and the pivot-growth
monitor's ``absmax``) are armed only when the matrix is an ``ndarray``
(:attr:`Emitter.block_guards`); the guards over workspace buffers, which
are in RAM on every plane, follow *guards* alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.layout import BlockLayout, Chunk
from repro.core.priorities import lookahead_depth, task_priority
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.ops import op_task
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind
from repro.runtime.tilestore import HeapBinding

__all__ = ["Emitter", "merged_chunks", "panel_program", "trailing_segments"]

#: Task kind per priority class: the finalize is a P task ranked apart.
_KINDS = {"P": TaskKind.P, "F": TaskKind.P, "L": TaskKind.L, "U": TaskKind.U, "S": TaskKind.S}


def merged_chunks(layout: BlockLayout, K: int, tr: int) -> list[Chunk]:
    """Panel chunks with a too-short tail merged into its predecessor.

    Guarantees every chunk has at least ``panel_width`` rows (needed by
    the tree merges, which stack full ``b``-row candidate sets), except
    when the whole active region is a single short chunk.
    """
    chunks = layout.panel_chunks(K, tr)
    bk = layout.panel_width(K)
    if len(chunks) > 1 and chunks[-1].rows < bk:
        last, prev = chunks[-1], chunks[-2]
        chunks[-2] = Chunk(index=prev.index, r0=prev.r0, r1=last.r1, b0=prev.b0, b1=last.b1)
        chunks.pop()
    return chunks


def trailing_segments(
    layout: BlockLayout, K: int, update_width: int | None = None
) -> list[tuple[int, int, int, list[int]]]:
    """Panel *K*'s trailing column segments ``(J, j0, j1, block columns)``.

    Usually a segment is a full block column ``J > K``, but when the
    panel is narrower than its block column (last panel of a wide
    matrix, ``min(m, n) % b != 0``) the leftover columns of block column
    ``K`` form a partial leading segment.  With ``update_width=B > b``
    the segments are grouped into super-segments of up to ``B`` columns
    (paper Section V), named after their first block column.
    """
    c1 = K * layout.b + layout.panel_width(K)
    kb_end = min((K + 1) * layout.b, layout.n)
    base = [(K, c1, kb_end)] if c1 < kb_end else []
    base.extend((J, *layout.col_range(J)) for J in range(K + 1, layout.N))
    segments: list[tuple[int, int, int, list[int]]] = []
    for J, j0, j1 in base:
        if update_width is not None and segments and j1 - segments[-1][1] <= update_width:
            Jf, g0, _, cols = segments[-1]
            segments[-1] = (Jf, g0, j1, cols + [J])
        else:
            segments.append((J, j0, j1, [J]))
    return segments


class Emitter:
    """Panel *K*'s task sink.

    ``store`` is the binding numeric tasks run over (``None``: a
    symbolic, cost-only graph) and ``A`` its matrix; ``guards`` arms the
    guards over workspace buffers, ``block_guards`` those that read
    matrix blocks (see the module docstring).
    """

    def __init__(self, graph, tracker, store, guards: bool, K: int, lookahead: int, n_cols: int):
        self.graph, self.tracker, self.store, self.K = graph, tracker, store, K
        self.A = None if store is None else store.A
        self.guards = guards
        self.block_guards = guards and isinstance(self.A, np.ndarray)
        self._lookahead, self._n_cols = lookahead, n_cols
        self._priorities: dict[tuple, float] = {}

    def task(
        self,
        name: str,
        rank: str,
        cost: Cost,
        op: tuple | None = None,
        *,
        fn: Callable[[], None] | None = None,
        J: int | None = None,
        reads,
        writes,
        deps=(),
        guard: Callable | None = None,
        **meta,
    ) -> int:
        """Emit one task of priority class *rank* (``P``/``F``/``L``/``U``/``S``);
        returns its id.

        Its body is the descriptor *op* — ``(opname, payload)``, falsy
        on a symbolic graph; run by :func:`repro.runtime.ops.run_op` on
        every backend and shipped to process workers when the binding's
        specs can cross — or *fn*, a parent-only closure.  Dependencies
        come from the *reads*/*writes* footprint plus the task ids
        *deps*; *guard* becomes ``meta["health"]`` and *J*, the target
        column of a U/S update, ``meta["col"]``.
        """
        if op:
            fn, published = op_task(self.store, *op)
            meta.update(published)
        if guard:
            meta["health"] = guard
        if J is not None:
            meta["col"] = J
        # ``task_priority`` once per class and column per window, not
        # per task: every S task of a segment shares its U's era.
        priority = self._priorities.get((rank, J))
        if priority is None:
            priority = self._priorities[rank, J] = task_priority(
                rank, self.K, J, lookahead=self._lookahead, n_cols=self._n_cols
            )
        return self.tracker.add_task(
            self.graph, name, _KINDS[rank], cost, fn=fn, reads=reads, writes=writes,
            extra_deps=deps, priority=priority, iteration=self.K, **meta,
        )


def panel_program(
    name: str,
    layout: BlockLayout,
    tr: int,
    new_state: Callable,
    panel: Callable,
    update: Callable,
    epilogue: Callable | None = None,
    *,
    A: np.ndarray | None = None,
    store=None,
    lookahead: int | None = None,
    guards: bool = True,
    checkpoint=None,
    library: str,
    update_width: int | None = None,
) -> tuple[GraphProgram, list]:
    """The streaming program of one factorization: a window per panel
    iteration plus, when the algorithm has an *epilogue* and more than
    one panel, a window for it.  Returns ``(program, per-panel states)``;
    the list fills as numeric panel windows are emitted.

    The algorithm's steps:

    ``new_state()``
        a numeric panel's state object (``to_arrays``/``restore``/``reset``).
    ``panel(em, chunks, state) -> (handles, keys)``
        emit the panel's reduction (and whatever of the panel column
        follows it) on the :class:`Emitter`; *keys* are the footprint
        keys of *state* a covering ``C[K]`` snapshot must read.
    ``update(em, handles, J, j0, j1, jcols)``
        emit one trailing segment's updates.
    ``epilogue(graph, states)``
        emit what follows the last panel.

    With *A* (factored in place, bound by *store*: the heap by default)
    tasks are numeric, without it symbolic; *guards* is honoured on
    numeric graphs only.  ``lookahead=None`` reads the process default.
    """
    if update_width is not None and update_width < layout.b:
        raise ValueError(f"update_width B={update_width} must be >= b={layout.b}")
    numeric = A is not None
    if lookahead is None:
        lookahead = lookahead_depth()
    if numeric and store is None:
        store = HeapBinding(A)
    guards = guards and numeric
    n_panels = layout.n_panels
    states: list = []
    state_keys: list[list[tuple]] = []  # accumulates: C[K] reads every covered panel's

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        if window >= n_panels:
            epilogue(graph, states)
            return
        K = window
        em = Emitter(graph, tracker, store, guards, K, lookahead, layout.N)
        state = new_state() if numeric else None
        if numeric:
            states.append(state)
        handles, keys = panel(em, merged_chunks(layout, K, tr), state)
        state_keys.append(keys)
        for J, j0, j1, jcols in trailing_segments(layout, K, update_width):
            update(em, handles, J, j0, j1, jcols)
        if numeric and checkpoint is not None and checkpoint.should_snapshot(K):
            covered = checkpoint.covered_panels(K)
            checkpoint.add_snapshot_task(
                graph, tracker, layout, K, A, states,
                state_reads=[key for P in covered for key in state_keys[P]],
                priority=task_priority("X", K, lookahead=lookahead, n_cols=layout.N) + 1.0,
                library=library,
            )

    n_windows = n_panels + (1 if epilogue is not None and n_panels > 1 else 0)
    program = GraphProgram(
        f"{name}{layout.m}x{layout.n}b{layout.b}tr{tr}", n_windows, emit, lookahead=lookahead
    )
    return program, states
