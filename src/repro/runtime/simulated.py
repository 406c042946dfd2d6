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

The event loop lives here and shares the task lifecycle's common parts
with the real clock (:mod:`repro.runtime.engine`): the window
bookkeeping (skip of completed tasks + ``resume`` event, look-ahead
expansion of streaming :class:`~repro.runtime.program.GraphProgram`
sources, in virtual-time order, deterministically), the structured
failure and the health guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

# Module-style import, as in engine.py: counters imports repro.runtime.sync.
from repro import counters as _counters
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.engine import _Bookkeeping, failure, health_guard
from repro.runtime.scheduler import POLICIES, ReadyQueue
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
    failure: BaseException | None = None  # injected fault fired at completion
    corrupt: bool = False  # injected corruption applied at completion


class SimulatedExecutor:
    """Run a task graph in simulated time on a :class:`MachineModel`.

    Parameters
    ----------
    machine:
        The multicore model that prices every task.
    policy:
        Ready-queue policy (``"priority"`` / ``"fifo"``).
    execute:
        If True, numeric closures are also executed (at completion, in
        simulated-time order, which respects dependencies) — used by
        tests to prove the simulated schedule computes the same result
        as the threaded one.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; injected
        stalls extend a task's setup phase in virtual time, injected
        exceptions abort the run at the task's completion event with a
        structured :class:`~repro.resilience.recovery.RuntimeFailure`
        carrying the partial trace, and (in ``execute`` mode)
        corruption faults poison the task's output.
    retry:
        Optional :class:`~repro.resilience.recovery.RetryPolicy`;
        recoverable injected faults then cost backoff time in the
        virtual schedule (recorded as ``retry`` events) instead of
        failing the run — mirroring the threaded executor.
    health_checks:
        Run ``meta["health"]`` guards after executed tasks (only
        meaningful with ``execute=True``).
    """

    def __init__(
        self,
        machine: MachineModel,
        policy: str = "priority",
        execute: bool = False,
        *,
        fault_plan=None,
        retry=None,
        health_checks: bool = True,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}; expected one of {POLICIES}")
        self.machine = machine
        self.policy = policy
        self.execute = execute
        self.fault_plan = fault_plan
        self.retry = retry
        self.health_checks = health_checks

    def run(self, source, journal=None) -> Trace:
        """Simulate (and with ``execute=True`` run) every task of an
        eager :class:`TaskGraph` or a streaming
        :class:`~repro.runtime.program.GraphProgram`; *journal* as on
        the real clock (the completed tasks to skip, one ``resume`` event)."""
        bk = _Bookkeeping.for_run(source, journal)
        records: list[TaskRecord] = []
        events: list = []
        try:
            self._run_virtual(bk, records, events)
        except RuntimeFailure as exc:
            if exc.trace is None:
                exc.trace = Trace(list(records), self.machine.cores, list(events))
            raise
        return Trace(records, self.machine.cores, events, stats=bk.stats())

    def _run_virtual(self, bk: _Bookkeeping, records: list, events: list) -> None:
        mach, plan, execute = self.machine, self.fault_plan, self.execute
        graph = bk.graph
        ready = ReadyQueue(self.policy)
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
                fault, corrupt = None, False
                if plan is not None:
                    delay, fault, corrupt = plan.virtual_faults(
                        task, retry=self.retry, record=events.append
                    )
                    setup += delay
                work, rate, demand = mach.work_and_demand(task.cost)
                running.append(
                    _Running(
                        task, core, clock, setup, work, rate, demand, failure=fault, corrupt=corrupt
                    )
                )

        def complete(r: _Running) -> None:
            task = r.task
            if r.failure is not None:
                raise failure(
                    "injected", f"task {task.name!r} failed: {r.failure}", task, r.failure
                )
            ran_on[task.tid] = r.core
            records.append(TaskRecord(task.tid, task.name, task.kind, r.core, r.start, clock))
            if execute and task.fn is not None:
                try:
                    task.fn()
                except RuntimeFailure:
                    raise
                except Exception as exc:
                    message = f"task {task.name!r} failed: {exc}"
                    raise failure("task_error", message, task, exc) from exc
            if r.corrupt and plan is not None and execute:
                plan.apply_corruption(task, record=events.append)
            failed = health_guard(task, execute and self.health_checks, events.append)
            if failed is not None:
                raise failed
            for t in bk.complete(task.tid):
                ready.push(t)
            free_cores.append(r.core)

        while not bk.finished:
            start_tasks()
            if not running:
                raise RuntimeError(
                    f"simulated deadlock: {bk.registered - bk.remaining}/{bk.registered} "
                    "tasks done, none running"
                )
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
