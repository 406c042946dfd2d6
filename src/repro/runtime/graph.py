"""Task dependency graphs and block-level dependency discovery.

The paper constructs its task dependency graph on the fly from the
blocks each task touches.  :class:`BlockTracker` reproduces that: every
task declares the ``b x b`` blocks it reads and writes, and the tracker
derives the read-after-write, write-after-read and write-after-write
edges automatically.  This keeps the builders in :mod:`repro.core` free
of hand-maintained dependency lists and guarantees the threaded
execution is race-free by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Sequence

from repro.runtime.task import Cost, Task, TaskKind

__all__ = ["TaskGraph", "BlockTracker"]


class TaskGraph:
    """A static DAG of :class:`~repro.runtime.task.Task` objects."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.tasks: list[Task] = []
        self.succs: list[list[int]] = []
        self.preds: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.tasks)

    def add(
        self,
        name: str,
        kind: TaskKind,
        cost: Cost,
        fn: Callable[[], None] | None = None,
        deps: Iterable[int] = (),
        priority: float = 0.0,
        iteration: int = 0,
        idempotent: bool = False,
        **meta,
    ) -> int:
        """Append a task depending on task ids *deps*; returns its id."""
        tid = len(self.tasks)
        task = Task(
            tid=tid,
            name=name,
            kind=kind,
            cost=cost,
            fn=fn,
            priority=priority,
            iteration=iteration,
            idempotent=idempotent,
            meta=meta,
        )
        self.tasks.append(task)
        self.succs.append([])
        dep_list = sorted({d for d in deps if d is not None})
        for d in dep_list:
            if not 0 <= d < tid:
                raise ValueError(f"task {name!r}: dependency {d} out of range")
            self.succs[d].append(tid)
        self.preds.append(dep_list)
        return tid

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def indegrees(self) -> list[int]:
        return [len(p) for p in self.preds]

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises if the graph has a cycle."""
        indeg = self.indegrees()
        queue = deque(t for t, d in enumerate(indeg) if d == 0)
        order: list[int] = []
        while queue:
            t = queue.popleft()
            order.append(t)
            for s in self.succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if len(order) != len(self.tasks):
            raise ValueError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Raise if the graph is not a DAG."""
        self.topological_order()

    def total_flops(self) -> float:
        return sum(t.cost.flops for t in self.tasks)

    def total_words(self) -> float:
        return sum(t.cost.words for t in self.tasks)

    def count_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.kind.value] = out.get(t.kind.value, 0) + 1
        return out

    def critical_path(self, time_of: Callable[[Task], float]) -> tuple[float, list[int]]:
        """Longest path through the DAG under the given per-task times.

        Returns ``(length_seconds, task_ids_on_path)``.  This is the
        lower bound on makespan with unlimited cores — the quantity the
        paper shrinks by taking the panel off the ``O(b)``-sync path.
        """
        order = self.topological_order()
        dist = [0.0] * len(self.tasks)
        best_pred = [-1] * len(self.tasks)
        for t in order:
            dist[t] += time_of(self.tasks[t])
            for s in self.succs[t]:
                if dist[t] > dist[s]:
                    dist[s] = dist[t]
                    best_pred[s] = t
        if not self.tasks:
            return 0.0, []
        end = max(range(len(self.tasks)), key=dist.__getitem__)
        path = [end]
        while best_pred[path[-1]] >= 0:
            path.append(best_pred[path[-1]])
        path.reverse()
        return dist[end], path

    def run_sequential(self) -> None:
        """Execute all numeric closures in a topological order (reference)."""
        for t in self.topological_order():
            fn = self.tasks[t].fn
            if fn is not None:
                fn()

    def to_dot(self, max_tasks: int = 400) -> str:
        """Graphviz source of the DAG (the paper's Figure 1 rendering).

        Nodes are colored by task kind following the paper's scheme
        (P red, L yellow, U blue, S green).  Raises if the graph is
        larger than *max_tasks* — render per-panel subsets instead.

        Names and the graph title are dot-escaped (quotes, backslashes)
        and nodes/edges are emitted in deterministic (tid-sorted) order
        so the output is a stable snapshot for tests and diffing.
        """
        if len(self.tasks) > max_tasks:
            raise ValueError(
                f"graph has {len(self.tasks)} tasks; raise max_tasks to render anyway"
            )

        def esc(s: str) -> str:
            return s.replace("\\", "\\\\").replace('"', '\\"')

        colors = {"P": "#e74c3c", "L": "#f1c40f", "U": "#5dade2", "S": "#58d68d", "X": "#bbbbbb"}
        lines = [
            f'digraph "{esc(self.name)}" {{',
            "  rankdir=TB;",
            '  node [style=filled, fontname="monospace"];',
        ]
        for t in self.tasks:
            color = colors.get(t.kind.value, "#dddddd")
            lines.append(f'  t{t.tid} [label="{esc(t.name)}", fillcolor="{color}"];')
        for t in range(len(self.tasks)):
            for s in sorted(self.succs[t]):
                lines.append(f"  t{t} -> t{s};")
        lines.append("}")
        return "\n".join(lines)

    def step_schedule(self, n_workers: int) -> list[list[int]]:
        """Greedy unit-time step schedule (the paper's Figure 2 view).

        Every task takes one step; at most *n_workers* run per step,
        chosen by priority among ready tasks.  Returns task ids per step.
        """
        import heapq

        indeg = self.indegrees()
        ready: list[tuple[float, int]] = []
        for t, d in enumerate(indeg):
            if d == 0:
                heapq.heappush(ready, (-self.tasks[t].priority, t))
        steps: list[list[int]] = []
        done = 0
        while done < len(self.tasks):
            if not ready:
                raise ValueError(f"graph {self.name!r} contains a cycle")
            step = [heapq.heappop(ready)[1] for _ in range(min(n_workers, len(ready)))]
            steps.append(step)
            done += len(step)
            for t in step:
                for s in self.succs[t]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, (-self.tasks[s].priority, s))
        return steps


class BlockTracker:
    """Derives task dependencies from block read/write sets.

    Blocks are arbitrary hashable coordinates — the CALU/CAQR builders
    use ``(block_row, block_col)`` pairs on the matrix's ``b x b`` grid
    and symbolic keys for workspaces (TSLU candidate buffers, ``T``
    factors).  The tracker enforces:

    * a reader depends on the last writer of each block it reads;
    * a writer depends on the last writer *and* on every reader since
      (WAR + WAW), so in-place updates serialize correctly.

    The per-task access sets are *kept* after edge derivation, in one
    place: :meth:`add_task` records them as ``Task.meta["reads"]`` /
    ``Task.meta["writes"]`` (read back through ``Task.reads`` /
    ``Task.writes``), so the edges and the footprint the dynamic
    sanitizer (:mod:`repro.verify.sanitize`) checks an op against are
    one source of truth about who touches what.  Every conflicting
    pair is therefore ordered by construction;
    ``tests/runtime/test_graph.py`` pins each rule against a
    brute-force oracle.
    """

    def __init__(self) -> None:
        self._last_writer: dict[Hashable, int] = {}
        self._readers: dict[Hashable, list[int]] = {}

    def deps_for(
        self,
        reads: Sequence[Hashable] = (),
        writes: Sequence[Hashable] = (),
    ) -> set[int]:
        """Dependency set for a task with the given access pattern."""
        deps: set[int] = set()
        lw = self._last_writer
        for blk in reads:
            w = lw.get(blk)
            if w is not None:
                deps.add(w)
        readers = self._readers
        for blk in writes:
            w = lw.get(blk)
            if w is not None:
                deps.add(w)
            rs = readers.get(blk)
            if rs:
                deps.update(rs)
        return deps

    def commit(
        self,
        tid: int,
        reads: Sequence[Hashable] = (),
        writes: Sequence[Hashable] = (),
    ) -> None:
        """Record that task *tid* performed the given accesses."""
        readers = self._readers
        for blk in reads:
            readers.setdefault(blk, []).append(tid)
        lw = self._last_writer
        for blk in writes:
            lw[blk] = tid
            if blk in readers:
                readers[blk] = []

    def add_task(
        self,
        graph: TaskGraph,
        name: str,
        kind: TaskKind,
        cost: Cost,
        fn: Callable[[], None] | None = None,
        reads: Sequence[Hashable] = (),
        writes: Sequence[Hashable] = (),
        extra_deps: Iterable[int] = (),
        priority: float = 0.0,
        iteration: int = 0,
        idempotent: bool = False,
        **meta,
    ) -> int:
        """Add a task to *graph* with dependencies derived from accesses.

        The access sets become ``Task.meta["reads"]`` /
        ``Task.meta["writes"]``, so the footprint sanitizer sees exactly
        the footprint the dependencies were derived from.
        """
        deps = self.deps_for(reads, writes)
        deps.update(extra_deps)
        tid = graph.add(
            name,
            kind,
            cost,
            fn=fn,
            deps=deps,
            priority=priority,
            iteration=iteration,
            idempotent=idempotent,
            **meta,
        )
        self.commit(tid, reads, writes)
        task = graph.tasks[tid]
        task.meta["reads"] = frozenset(reads)
        task.meta["writes"] = frozenset(writes)
        return tid
