"""Ready-task selection policies.

Both executors keep a single ready queue; the policy decides which
ready task a free core takes next.  The paper uses dynamic scheduling
with a *look-ahead of 1* — the builders encode that rule in the static
``priority`` field of each task (panel tasks and the updates of block
column ``K+1`` outrank the rest), so the queue itself only needs to be
a stable max-priority heap.  A FIFO policy is kept for the scheduling
ablation benchmarks.
"""

from __future__ import annotations

import heapq

from repro.runtime.task import Task

__all__ = ["POLICIES", "ReadyQueue"]

POLICIES = ("priority", "fifo")


class ReadyQueue:
    """Stable priority queue of ready tasks.

    ``policy="priority"`` pops the highest-priority task (insertion
    order breaks ties); ``policy="fifo"`` ignores priorities entirely.
    """

    def __init__(self, policy: str = "priority") -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        self._heap: list[tuple[float, int, Task]] = []
        self._seq = 0

    def push(self, task: Task) -> None:
        key = -task.priority if self.policy == "priority" else 0.0
        heapq.heappush(self._heap, (key, self._seq, task))
        self._seq += 1

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
