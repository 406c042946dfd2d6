"""The completed-task set of a run.

A :class:`TaskJournal` holds the names of the tasks that have completed
(post-guards).  ``executor.run(graph, journal=journal)`` records into it
and skips what it already holds — their effects are present, restored
into the matrix from a checkpoint or still live in process memory — so
a run that failed resumes from the surviving frontier when it is run
again with the same journal.  It lives in memory: what survives a crash
is the checkpoint's snapshot chain, from which the driver reseeds a
fresh journal with the tasks the restored boundary covers.
"""

from __future__ import annotations

from repro.runtime.sync import make_lock

__all__ = ["TaskJournal"]


class TaskJournal:
    """Completed-task names, shared by the threads of a run."""

    def __init__(self) -> None:
        self._lock = make_lock("resilience.journal")
        self._graph: str | None = None
        self._completed: set[str] = set()

    def bind(self, source) -> set[str]:
        """Attach the journal to a graph or program; returns the
        completed names.

        Entries recorded under a different graph name describe other
        tasks and must not cause skips: they are discarded.  Entries
        naming tasks an eager graph does not contain are ignored for the
        same reason; for a streaming
        :class:`~repro.runtime.program.GraphProgram` the full set is
        returned (the executor matches names at window registration, so
        foreign entries are simply never hit).
        """
        with self._lock:
            if self._graph not in (None, source.name):
                self._completed = set()
            self._graph = source.name
            tasks = getattr(source, "tasks", None)
            if tasks is None:
                return set(self._completed)
            return self._completed & {t.name for t in tasks}

    @property
    def completed(self) -> frozenset:
        with self._lock:
            return frozenset(self._completed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed)

    def record(self, task) -> None:
        """Journal one completed task (called by executors post-guards)."""
        self.record_name(task.name)

    def record_name(self, name: str) -> None:
        with self._lock:
            self._completed.add(name)

    def mark_completed(self, names) -> None:
        """Bulk-journal *names* (checkpoint restore seeds the skip set)."""
        with self._lock:
            self._completed.update(names)

    def reset(self) -> None:
        """Discard all entries (and the graph binding)."""
        with self._lock:
            self._graph = None
            self._completed = set()
