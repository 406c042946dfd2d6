"""Work-stealing execution of task graphs.

An alternative to the centralized ready queue of
:class:`~repro.runtime.threaded.ThreadedExecutor`: each worker owns a
deque; tasks released by a completion are pushed to the completing
worker's own deque (producer-consumer locality, the heuristic later
PLASMA/StarPU-era runtimes adopted), and idle workers steal from the
tail of a victim's deque.

The executor exists for the scheduling ablation: on task graphs with
wide fan-out the centralized queue's global priority order buys the
paper's look-ahead behaviour, while stealing trades that order for less
contention.  Numerical results are identical either way — dependencies
are always respected.

The stealing policy lives in
:class:`~repro.runtime.engine.StealingFrontier`; this class is the
:class:`~repro.runtime.engine.ExecutionEngine` with that frontier made
for each run, so every engine option, the ``resume`` event
and streaming :class:`~repro.runtime.program.GraphProgram` sources
behave as on the other backends.
"""

from __future__ import annotations

from repro.runtime.engine import ExecutionEngine, StealingFrontier

__all__ = ["WorkStealingExecutor"]


class WorkStealingExecutor(ExecutionEngine):
    """The engine with per-worker deques and stealing.

    Parameters
    ----------
    n_workers:
        Number of worker threads.
    seed:
        Seed for the (deterministic) victim-selection sequence.
    options:
        The engine's keyword options (see
        :class:`~repro.runtime.engine.ExecutionEngine`).
    """

    def __init__(self, n_workers: int = 4, seed: int = 0, **options) -> None:
        options.setdefault("thread_name", "repro-steal")
        super().__init__(n_workers, **options)
        self.seed = seed

    def new_frontier(self) -> StealingFrontier:
        return StealingFrontier(self.n_workers, self.seed)
