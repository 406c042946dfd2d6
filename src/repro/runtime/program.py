"""Task-graph programs: a builder as ordered windows of tasks.

A :class:`GraphProgram` packages a builder as an ordered sequence of
*windows* (one per panel iteration, plus an optional epilogue).  Each
window is emitted by a single ``emit(window, graph, tracker)`` callable
appending that iteration's tasks to a shared
:class:`~repro.runtime.graph.TaskGraph`, deriving dependencies from
:class:`~repro.runtime.graph.BlockTracker` footprints.  A program is
emitted once, whole, by :meth:`~GraphProgram.materialize` — in
:func:`repro.core.driver.compile` for a plan, so no run emits — and its
``windows`` record each iteration's task-id range (what a checkpoint
resume skips).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.runtime.graph import BlockTracker, TaskGraph

__all__ = ["GraphProgram"]


class GraphProgram:
    """A task-graph builder: ordered windows of tasks.

    Parameters
    ----------
    name:
        Name of the underlying :class:`TaskGraph`.
    n_windows:
        Total number of windows the program emits (typically one per
        panel iteration plus an optional epilogue window).
    emit:
        ``emit(window, graph, tracker)`` appends window *window*'s
        tasks to *graph* (deriving edges through *tracker*).  Windows
        are always emitted in order ``0, 1, ..., n_windows - 1``.
    """

    def __init__(
        self,
        name: str,
        n_windows: int,
        emit: Callable[[int, TaskGraph, BlockTracker], None],
    ) -> None:
        if n_windows < 0:
            raise ValueError(f"n_windows must be >= 0, got {n_windows}")
        self.graph = TaskGraph(name)
        self.tracker = BlockTracker()
        self.n_windows = n_windows
        self._emit = emit
        #: Emitted windows as ``[start_tid, end_tid)`` ranges.
        self.windows: list[tuple[int, int]] = []
        #: Seconds spent inside ``emit`` calls.
        self.emit_seconds = 0.0

    @property
    def name(self) -> str:
        return self.graph.name

    def __len__(self) -> int:
        return len(self.graph.tasks)

    def materialize(self) -> TaskGraph:
        """Emit every window not yet emitted, in order; returns the
        complete graph (idempotent)."""
        if len(self.windows) < self.n_windows:
            t0 = time.perf_counter()
            for w in range(len(self.windows), self.n_windows):
                start = len(self.graph.tasks)
                self._emit(w, self.graph, self.tracker)
                self.windows.append((start, len(self.graph.tasks)))
            self.emit_seconds += time.perf_counter() - t0
        return self.graph
