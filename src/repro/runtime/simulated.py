"""Discrete-event simulation of a task graph on a modelled machine.

This is how the repository reproduces the paper's *performance* results
at paper scale (``10^6 x 500`` matrices) on any host: the same task
graph the threaded executor runs is replayed in virtual time, with each
task priced by the :class:`~repro.machine.model.MachineModel` —
efficiency curves, shared-bandwidth contention (processor sharing with
max-min fairness), per-task scheduling overhead and cross-core
synchronization latency.

Mechanics
---------
Each core runs at most one task.  A running task goes through a fixed
*setup* phase (scheduling overhead, plus sync latency if it consumes
data produced on another core) and then a *work* phase whose rate is
recomputed at every event from the set of concurrently running tasks
(memory-bound tasks share the aggregate bandwidth).  Events are task
starts and completions; the simulation is fully deterministic.

The simulator only prices: it never runs a task's closure, so it
injects no faults and runs no health guards — the factors, and every
fault a run can meet, come from the real engine
(:mod:`repro.runtime.engine`).  The event loop lives here and shares
the engine's ready bookkeeping (skip of completed tasks + ``resume``
event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

# Module-style import, as in engine.py: counters imports repro.runtime.sync.
from repro import counters as _counters
from repro.runtime.engine import _Bookkeeping
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.task import Task
from repro.runtime.trace import TaskRecord, Trace

if TYPE_CHECKING:  # avoid a runtime circular import with repro.machine
    from repro.machine.model import MachineModel

__all__ = ["SimulatedExecutor"]

_EPS = 1e-12


@dataclass
class _Running:
    task: Task
    core: int
    start: float
    setup_left: float  # seconds of fixed setup remaining
    work_left: float  # work units remaining (flops or bytes)
    max_rate: float  # work units / second cap
    demand: float  # bytes per work unit
    rate: float = 0.0


class SimulatedExecutor:
    """Run a task graph in simulated time on a :class:`MachineModel`.

    Parameters
    ----------
    machine:
        The multicore model that prices every task.

    A run prices the graph's tasks and never calls their closures, so a
    driver (``calu``/``caqr``/``tsqr``/``tslu``) refuses this executor;
    simulate a driver's symbolic ``*_program`` instead.
    """

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine

    def run(self, source, journal=None) -> Trace:
        """Simulate every task of a :class:`TaskGraph` (a
        :class:`~repro.runtime.program.GraphProgram` is materialized
        first); *journal* as on the real clock (the completed tasks to
        skip, one ``resume`` event)."""
        bk = _Bookkeeping(source, journal)
        records: list[TaskRecord] = []
        events: list = []
        self._run_virtual(bk, records, events)
        return Trace(records, self.machine.cores, events, stats=bk.stats())

    def _run_virtual(self, bk: _Bookkeeping, records: list, events: list) -> None:
        mach = self.machine
        graph = bk.graph
        ready = ReadyQueue()
        ran_on: dict[int, int] = {}
        clock = 0.0
        sync_lat = mach.sync_latency_us * 1e-6
        for t in bk.start(events):
            ready.push(t)

        free_cores = list(range(mach.cores - 1, -1, -1))  # pop() yields core 0 first
        running: list[_Running] = []

        def start_tasks() -> None:
            while ready and free_cores:
                core = free_cores.pop()
                task = ready.pop()
                remote = sum(1 for p in graph.preds[task.tid] if ran_on.get(p, core) != core)
                setup = mach.task_overhead_s(task.cost) + (sync_lat if remote else 0.0)
                if remote:
                    _counters.add_sync(remote)
                    _counters.add_words(int(task.cost.words))
                work, rate, demand = mach.work_and_demand(task.cost)
                running.append(_Running(task, core, clock, setup, work, rate, demand))

        def complete(r: _Running) -> None:
            task = r.task
            ran_on[task.tid] = r.core
            records.append(TaskRecord(task.tid, task.name, task.kind, r.core, r.start, clock))
            for t in bk.complete(task.tid):
                ready.push(t)
            free_cores.append(r.core)

        while not bk.finished:
            start_tasks()
            if not running:
                n = len(graph.tasks)
                raise RuntimeError(f"simulated deadlock: {n - bk.remaining}/{n} done, none running")
            # Recompute processor-sharing rates for tasks in the work phase.
            in_work = [r for r in running if r.setup_left <= _EPS and r.work_left > 0.0]
            if in_work:
                rates = mach.share_rates([(r.max_rate, r.demand) for r in in_work])
                for r, rate in zip(in_work, rates, strict=True):
                    r.rate = rate
            # Time to the next event (a phase change or a completion).
            dt = float("inf")
            for r in running:
                if r.setup_left > _EPS:
                    dt = min(dt, r.setup_left)
                elif r.work_left > 0.0:
                    if r.rate > 0.0:
                        dt = min(dt, r.work_left / r.rate)
                else:
                    dt = 0.0
            if dt == float("inf"):
                raise RuntimeError("simulated stall: running tasks cannot progress")
            dt = max(dt, 0.0)
            clock += dt
            still: list[_Running] = []
            for r in running:
                if r.setup_left > _EPS:
                    r.setup_left -= dt
                    if r.setup_left <= _EPS:
                        r.setup_left = 0.0
                        if r.work_left <= 0.0:
                            complete(r)
                            continue
                    still.append(r)
                else:
                    r.work_left -= r.rate * dt
                    if r.work_left <= _EPS * max(1.0, r.rate):
                        complete(r)
                    else:
                        still.append(r)
            running = still
