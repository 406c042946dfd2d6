"""Ready-task selection.

Both executors keep a single ready queue that decides which ready task
a free core takes next.  The paper uses dynamic scheduling with a
*look-ahead of 1* — the builders encode that rule in the static
``priority`` field of each task (panel tasks and the updates of block
column ``K+1`` outrank the rest), so the queue itself only needs to be
a stable max-priority heap.
"""

from __future__ import annotations

import heapq

from repro.runtime.task import Task

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Stable priority queue of ready tasks: pops the highest-priority
    task, insertion order breaking ties."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Task]] = []
        self._seq = 0

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (-task.priority, self._seq, task))
        self._seq += 1

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
