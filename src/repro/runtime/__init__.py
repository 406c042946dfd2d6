"""Task-graph runtime.

The paper's algorithms are expressed as *task graphs*: each matrix
operation (a TSLU tree node, a ``dtrsm`` on a block of L, a ``dgemm``
trailing update, ...) is a task; edges are data dependencies discovered
from the blocks each task reads and writes.  A builder is a
:class:`~repro.runtime.program.GraphProgram` (one window of tasks per
panel), emitted once into a :class:`~repro.runtime.graph.TaskGraph`,
which can be

* executed by real threads (:class:`~repro.runtime.threaded.ThreadedExecutor`)
  for numerical results and concurrency validation, or
* replayed in virtual time on a modelled multicore machine
  (:class:`~repro.runtime.simulated.SimulatedExecutor`) to reproduce
  the paper's GFLOP/s measurements and execution diagrams at full
  paper-scale dimensions.

There is one real-clock executor,
:class:`~repro.runtime.engine.ExecutionEngine`, which owns the task
lifecycle (one shared ready queue, resume skip, retry, fault injection,
health guards, tracing, watchdog): ``ThreadedExecutor`` is that class
and :class:`~repro.runtime.process.ProcessExecutor` subclasses it with
a pool of worker processes it owns.  The simulator keeps its own
discrete-event loop over the same :class:`ReadyQueue` and shares the
engine's ready bookkeeping; it prices tasks and never runs them.
"""

from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.program import GraphProgram
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.task import Cost, Task, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.trace import TaskRecord, Trace

__all__ = [
    "BlockTracker",
    "Cost",
    "ExecutionEngine",
    "GraphProgram",
    "ProcessExecutor",
    "ReadyQueue",
    "SimulatedExecutor",
    "Task",
    "TaskGraph",
    "TaskKind",
    "TaskRecord",
    "ThreadedExecutor",
    "Trace",
]
