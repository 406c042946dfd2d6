"""Task-graph runtime.

The paper's algorithms are expressed as *task graphs*: each matrix
operation (a TSLU tree node, a ``dtrsm`` on a block of L, a ``dgemm``
trailing update, ...) is a task; edges are data dependencies discovered
from the blocks each task reads and writes.  Graphs come in two forms —
an eager :class:`~repro.runtime.graph.TaskGraph` or a streaming
:class:`~repro.runtime.program.GraphProgram` emitting one panel window
at a time — and either can be

* executed by real threads (:class:`~repro.runtime.threaded.ThreadedExecutor`)
  for numerical results and concurrency validation, or
* replayed in virtual time on a modelled multicore machine
  (:class:`~repro.runtime.simulated.SimulatedExecutor`) to reproduce
  the paper's GFLOP/s measurements and execution diagrams at full
  paper-scale dimensions.

There is one real-clock executor,
:class:`~repro.runtime.engine.ExecutionEngine`, which owns the task
lifecycle (frontier, resume skip, retry, fault injection, health
guards, tracing, watchdog): ``ThreadedExecutor`` is that class,
:class:`~repro.runtime.stealing.WorkStealingExecutor` subclasses it
with a stealing frontier and
:class:`~repro.runtime.process.ProcessExecutor` with a pool of worker
processes it owns.  The simulator keeps its own discrete-event loop and
shares the engine's window bookkeeping, failure and health guard.
"""

from repro.runtime.engine import CentralFrontier, ExecutionEngine, StealingFrontier
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.program import GraphProgram
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.task import Cost, Task, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.trace import TaskRecord, Trace

__all__ = [
    "BlockTracker",
    "CentralFrontier",
    "Cost",
    "ExecutionEngine",
    "GraphProgram",
    "ProcessExecutor",
    "ReadyQueue",
    "SimulatedExecutor",
    "StealingFrontier",
    "Task",
    "TaskGraph",
    "TaskKind",
    "TaskRecord",
    "ThreadedExecutor",
    "Trace",
    "WorkStealingExecutor",
]
