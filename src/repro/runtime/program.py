"""Streaming task-graph programs.

The paper's runtime schedules tasks "with a dependency graph built on
the fly": the tasks of panel ``K`` (and, per look-ahead, ``K+1``) are
created as their predecessors complete, so graph construction never
sits on the critical path and the scheduler's working set stays
``O(active window)`` instead of ``O(total tasks)``.

A :class:`GraphProgram` packages a builder as an ordered sequence of
*windows* (one per panel iteration, plus an optional epilogue).  Each
window is emitted by a single ``emit(window, graph, tracker)`` callable
appending that iteration's tasks to a shared, growing
:class:`~repro.runtime.graph.TaskGraph`.  Because dependencies are
derived from :class:`~repro.runtime.graph.BlockTracker` footprints —
which only ever reference already-emitted tasks — incremental emission
discovers exactly the edges :meth:`materialize` (emit every window up
front) does.  The
:class:`~repro.runtime.engine.ExecutionEngine` consumes programs
directly, expanding the emitted frontier as windows complete.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.task import Task

__all__ = ["GraphProgram", "as_program", "supports_streaming"]


class GraphProgram:
    """An incremental task-graph builder: ordered windows of tasks.

    Parameters
    ----------
    name:
        Name of the underlying :class:`TaskGraph`.
    n_windows:
        Total number of windows the program will emit (typically one
        per panel iteration plus an optional epilogue window).
    emit:
        ``emit(window, graph, tracker)`` appends window *window*'s
        tasks to *graph* (deriving edges through *tracker*).  Windows
        are always emitted in order ``0, 1, ..., n_windows - 1``.
    lookahead:
        Look-ahead depth of the program: the engine keeps windows
        ``0..W+lookahead`` emitted while the lowest incomplete window
        is ``W``.  ``None`` defers to the process-wide default
        (:func:`repro.core.priorities.lookahead_depth`); ``-1`` means
        infinite (everything is emitted up front, as in an eager run).
    """

    def __init__(
        self,
        name: str,
        n_windows: int,
        emit: Callable[[int, TaskGraph, BlockTracker], None] | None,
        *,
        lookahead: int | None = None,
    ) -> None:
        if n_windows < 0:
            raise ValueError(f"n_windows must be >= 0, got {n_windows}")
        self.graph = TaskGraph(name)
        self.tracker = BlockTracker()
        self.n_windows = n_windows
        self.lookahead = lookahead
        self._emit = emit
        #: Emitted windows as ``[start_tid, end_tid)`` ranges.
        self.windows: list[tuple[int, int]] = []
        #: Cumulative seconds spent inside ``emit`` calls (the cost the
        #: streaming engine moves off the critical path).
        self.emit_seconds = 0.0

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def emitted(self) -> int:
        """Number of windows emitted so far."""
        return len(self.windows)

    @property
    def exhausted(self) -> bool:
        return len(self.windows) >= self.n_windows

    def __len__(self) -> int:
        return len(self.graph.tasks)

    def emit_next(self) -> list[Task]:
        """Emit the next window; returns its (possibly empty) task list."""
        if self.exhausted:
            raise ValueError(f"program {self.name!r}: all {self.n_windows} windows emitted")
        w = len(self.windows)
        start = len(self.graph.tasks)
        t0 = time.perf_counter()
        assert self._emit is not None  # exhausted guard covers emit-less programs
        self._emit(w, self.graph, self.tracker)
        self.emit_seconds += time.perf_counter() - t0
        self.windows.append((start, len(self.graph.tasks)))
        return self.graph.tasks[start:]

    def emit_through(self, window: int) -> None:
        """Emit windows up to and including *window* (idempotent)."""
        while not self.exhausted and self.emitted <= window:
            self.emit_next()

    def materialize(self) -> TaskGraph:
        """Emit every remaining window; returns the complete graph.

        This is the eager path: what the verify/DOT/analysis tooling
        consumes.
        """
        while not self.exhausted:
            self.emit_next()
        return self.graph

    @classmethod
    def from_graph(cls, graph: TaskGraph) -> "GraphProgram":
        """Wrap an already-built eager graph as a single-window program."""
        program = cls.__new__(cls)
        program.graph = graph
        program.tracker = BlockTracker()
        program.n_windows = 1
        program.lookahead = -1
        program._emit = None
        program.windows = [(0, len(graph.tasks))]
        program.emit_seconds = 0.0
        return program


def as_program(source) -> GraphProgram:
    """Coerce *source* (a :class:`TaskGraph` or a program) to a program."""
    if isinstance(source, GraphProgram):
        return source
    if isinstance(source, TaskGraph):
        return GraphProgram.from_graph(source)
    raise TypeError(f"expected a TaskGraph or GraphProgram, got {type(source).__name__}")


def supports_streaming(executor) -> bool:
    """Whether *executor* consumes programs window by window: the
    :class:`~repro.runtime.engine.ExecutionEngine` (every real-clock
    backend is one) or the :class:`~repro.runtime.simulated.SimulatedExecutor`.

    The high-level drivers (:func:`repro.core.calu.calu`, ...) stream
    their graph programs through these; any other (duck-typed
    caller-supplied) executor receives a fully materialized
    :class:`TaskGraph` instead, preserving the historical contract.
    """
    # Imported here: both modules import this one.
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.simulated import SimulatedExecutor

    return isinstance(executor, (ExecutionEngine, SimulatedExecutor))
