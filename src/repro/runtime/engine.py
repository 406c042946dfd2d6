"""The unified execution engine behind every executor front-end.

Historically :class:`~repro.runtime.threaded.ThreadedExecutor`,
:class:`~repro.runtime.simulated.SimulatedExecutor` and
:class:`~repro.runtime.stealing.WorkStealingExecutor` each reimplemented
the task lifecycle — ready tracking, journal skip + resume events,
retry, fault injection, health guards, failure wrapping, tracing and the
watchdog — so every resilience feature landed three times or not at all.
:class:`ExecutionEngine` owns that lifecycle once, behind two pluggable
axes:

* **clock** — ``"real"`` runs tasks on worker threads, or in the
  worker processes of a pool fed by one dispatcher loop (wall-clock);
  ``"virtual"`` replays the graph as a discrete-event simulation priced
  by a :class:`~repro.machine.model.MachineModel`.
* **frontier** — how ready tasks are distributed to workers on the real
  clock: :class:`CentralFrontier` (one shared priority queue, the
  paper's look-ahead scheduling) or :class:`StealingFrontier`
  (per-worker deques with deterministic stealing).

The engine consumes :class:`~repro.runtime.program.GraphProgram`
sources: windows of tasks are *registered* as the program emits them,
and the program is expanded on the fly so that while the lowest
incomplete window is ``W``, windows through ``W + lookahead`` exist.
Graph construction therefore stays off the critical path and the
scheduler's live set is bounded by the look-ahead window, not the total
DAG — eager :class:`~repro.runtime.graph.TaskGraph` inputs are wrapped
as single-window programs and behave exactly as before.
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import deque
from dataclasses import dataclass

# Module-style import: counters itself imports repro.runtime.sync, so a
# from-import here would fail when counters is the first module loaded.
from repro import counters as _counters
from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import InjectedFault
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.program import GraphProgram, as_program
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.sync import make_condition, make_lock
from repro.runtime.task import Task
from repro.runtime.trace import TaskRecord, Trace

__all__ = ["ExecutionEngine", "CentralFrontier", "StealingFrontier"]

_EPS = 1e-12

#: Tasks in flight per worker process under the dispatcher (queued in
#: its pipe or running).  Deep enough that one message carries several
#: small tasks, shallow enough that a newly released critical-path task
#: never waits behind more than three; measured as the knee among
#: 2/4/8 (docs/RUNTIME.md).  Not a tuning knob.
_MAX_INFLIGHT = 4
_POLL_S = 0.05  # dispatcher's wait for replies before it re-checks liveness and abort


class CentralFrontier:
    """One shared ready queue for all workers (the paper's scheduler).

    Placement of each task's predecessors is accounted (a sync and the
    task's input volume per remote predecessor), matching the
    historical :class:`ThreadedExecutor` communication counters.
    """

    counts_placement = True

    def __init__(self, policy: str = "priority") -> None:
        self._queue = ReadyQueue(policy)

    def seed_tasks(self, tasks: list[Task]) -> None:
        for t in tasks:
            self._queue.push(t)

    def push_released(self, tasks: list[Task], core: int) -> None:
        for t in tasks:
            self._queue.push(t)

    def pop(self, core: int) -> Task | None:
        return self._queue.pop() if self._queue else None

    def __bool__(self) -> bool:
        return bool(self._queue)


class StealingFrontier:
    """Per-worker deques with deterministic work stealing.

    Tasks released by a completion go to the completing worker's own
    deque (producer–consumer locality); idle workers scan victims in a
    seeded deterministic order and steal from the head (FIFO), counting
    one sync per steal.  Placement is not otherwise accounted.
    """

    counts_placement = False

    def __init__(self, n_workers: int, seed: int = 0) -> None:
        self.n_workers = n_workers
        self.seed = seed
        self._deques: list[deque[Task]] = [deque() for _ in range(n_workers)]

    def seed_tasks(self, tasks: list[Task]) -> None:
        # Distribute round-robin, highest priority first so every
        # worker starts near the critical path.
        roots = sorted(tasks, key=lambda t: -t.priority)
        for i, t in enumerate(roots):
            self._deques[i % self.n_workers].append(t)

    def push_released(self, tasks: list[Task], core: int) -> None:
        # Locality: released tasks go to my deque, highest priority
        # last so my LIFO pop sees it first.
        for t in sorted(tasks, key=lambda t: t.priority):
            self._deques[core].append(t)

    def pop(self, core: int) -> Task | None:
        """Own deque first (LIFO for locality), then steal (FIFO)."""
        own = self._deques[core]
        if own:
            return own.pop()
        for off in range(1, self.n_workers):
            victim = (core + self.seed + off) % self.n_workers
            if self._deques[victim]:
                _counters.add_sync()
                return self._deques[victim].popleft()
        return None

    def __bool__(self) -> bool:
        return any(self._deques)


class _Bookkeeping:
    """Frontier accounting over a growing graph (callers synchronize).

    Registers emitted windows, tracks in-degrees against completed
    tasks, marks journaled tasks done at registration, and expands the
    program so ``lookahead`` windows exist past the lowest incomplete
    one.  Both engine clocks share this logic.
    """

    def __init__(self, program: GraphProgram, done_names: set[str], depth: int) -> None:
        self.program = program
        self.graph = program.graph
        self.done_names = done_names
        self.depth = depth
        self.done: list[bool] = []
        self.indeg: list[int] = []
        self.skipped: set[int] = set()
        self.remaining = 0  # registered, not skipped, not completed
        self.n_skipped = 0
        self.peak_live = 0
        self.window_total: list[int] = []
        self.window_done: list[int] = []
        self.window_of: list[int] = []
        self._lowest = 0  # lowest window with incomplete tasks

    @property
    def registered(self) -> int:
        return len(self.done)

    @property
    def finished(self) -> bool:
        return self.remaining == 0 and self.program.exhausted

    def start(self) -> list[Task]:
        """Register pre-emitted windows, expand to the initial look-ahead
        target; returns the ready roots in tid order."""
        ready: list[Task] = []
        for w, (s, e) in enumerate(self.program.windows):
            ready.extend(self._register(w, self.graph.tasks[s:e]))
        ready.extend(self.expand())
        return ready

    def _register(self, window: int, tasks: list[Task]) -> list[Task]:
        while len(self.window_total) <= window:
            self.window_total.append(0)
            self.window_done.append(0)
        ready: list[Task] = []
        for task in tasks:
            tid = task.tid
            self.window_total[window] += 1
            self.window_of.append(window)
            if self.done_names and task.name in self.done_names:
                # Journaled: done before the run starts.  Its ancestors
                # are journaled too (the journal is write-ahead in
                # dependency order), so no release bookkeeping is owed.
                self.done.append(True)
                self.indeg.append(0)
                self.skipped.add(tid)
                self.n_skipped += 1
                self.window_done[window] += 1
                continue
            nd = sum(1 for p in self.graph.preds[tid] if not self.done[p])
            self.done.append(False)
            self.indeg.append(nd)
            self.remaining += 1
            if nd == 0:
                ready.append(task)
        self.peak_live = max(self.peak_live, self.remaining)
        return ready

    def complete(self, tid: int) -> list[Task]:
        """Mark *tid* done; returns newly ready tasks (released
        successors, then roots of any windows emitted by expansion)."""
        self.done[tid] = True
        released: list[Task] = []
        for s in self.graph.succs[tid]:
            if self.done[s]:
                continue
            self.indeg[s] -= 1
            if self.indeg[s] == 0:
                released.append(self.graph.tasks[s])
        self.remaining -= 1
        w = self.window_of[tid]
        self.window_done[w] += 1
        if self.window_done[w] == self.window_total[w]:
            released.extend(self.expand())
        return released

    def expand(self) -> list[Task]:
        """Emit windows until ``lowest_incomplete + depth`` exist."""
        ready: list[Task] = []
        program = self.program
        while not program.exhausted:
            while (
                self._lowest < len(self.window_total)
                and self.window_done[self._lowest] == self.window_total[self._lowest]
            ):
                self._lowest += 1
            target = min(program.n_windows, self._lowest + self.depth + 1)
            if program.emitted >= target:
                break
            window = program.emitted
            ready.extend(self._register(window, program.emit_next()))
        return ready

    def stats(self) -> dict:
        return {
            "n_tasks": len(self.graph.tasks),
            "peak_live_tasks": self.peak_live,
            "windows_emitted": self.program.emitted,
            "n_windows": self.program.n_windows,
            "emit_seconds": self.program.emit_seconds,
            "skipped": self.n_skipped,
        }


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


class ExecutionEngine:
    """Owns the task lifecycle for every executor front-end.

    Parameters
    ----------
    n_workers:
        Worker threads on the real clock (ignored on the virtual one,
        where the :class:`MachineModel` supplies the core count).
    frontier:
        Real-clock ready-task distribution strategy; a fresh
        :class:`CentralFrontier` or :class:`StealingFrontier` per run.
    clock:
        ``"real"`` (threads) or ``"virtual"`` (discrete-event
        simulation on *machine*).
    machine / policy / execute:
        Virtual-clock configuration (see
        :class:`~repro.runtime.simulated.SimulatedExecutor`).
    retry / fault_plan / task_timeout / stall_timeout / health_checks /
    watchdog_poll_s:
        The resilience options shared by all front-ends (see
        :class:`~repro.runtime.threaded.ThreadedExecutor`).
    deadline:
        Optional absolute ``time.monotonic()`` timestamp: once passed,
        the watchdog aborts the run with a structured
        ``failure_kind="deadline"`` :class:`RuntimeFailure` even while
        individual tasks keep making progress.  This is how a service
        front-end maps a *per-request* deadline onto a run whose total
        task count exceeds any sensible per-task timeout (real clock
        only).
    thread_name:
        Prefix for worker thread names.
    process_pool:
        A :class:`~repro.runtime.process._WorkerPool`: tasks carrying a
        ``meta["op"]`` descriptor then run in its worker processes, fed
        by one dispatcher loop instead of ``n_workers`` threads (see
        :meth:`_RealClockRun.dispatcher`); the pool may be shared by
        concurrent engines.
    """

    def __init__(
        self,
        *,
        n_workers: int = 4,
        frontier=None,
        clock: str = "real",
        machine=None,
        policy: str = "priority",
        execute: bool = False,
        retry=None,
        fault_plan=None,
        task_timeout: float | None = None,
        stall_timeout: float | None = None,
        deadline: float | None = None,
        health_checks: bool = True,
        watchdog_poll_s: float = 0.02,
        thread_name: str = "repro-worker",
        process_pool=None,
    ) -> None:
        if clock not in ("real", "virtual"):
            raise ValueError(f"unknown clock {clock!r}")
        if clock == "virtual" and machine is None:
            raise ValueError("virtual clock requires a machine model")
        self.n_workers = n_workers
        self.frontier = frontier
        self.clock = clock
        self.machine = machine
        self.policy = policy
        self.execute = execute
        self.retry = retry
        self.fault_plan = fault_plan
        self.task_timeout = task_timeout
        self.stall_timeout = stall_timeout
        self.deadline = deadline
        self.health_checks = health_checks
        self.watchdog_poll_s = watchdog_poll_s
        self.thread_name = thread_name
        self.process_pool = process_pool

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, source, journal=None) -> Trace:
        """Run a :class:`TaskGraph` or :class:`GraphProgram` to completion.

        With *journal*, tasks the journal already records as completed
        are skipped at registration (one ``resume`` event), and every
        completed task (post-guards) is journaled before its successors
        are released.
        """
        done_names: set[str] = set()
        if journal is not None:
            done_names = journal.bind(source)
        program = as_program(source)
        depth = program.lookahead
        if depth is None:
            from repro.core.priorities import lookahead_depth

            depth = lookahead_depth()
        if depth < 0:
            depth = program.n_windows  # infinite: emit everything up front
        bookkeeping = _Bookkeeping(program, done_names, depth)
        if self.clock == "virtual":
            return self._run_virtual(program, bookkeeping, journal)
        return self._run_threads(program, bookkeeping, journal)

    @staticmethod
    def _resume_event(bookkeeping: _Bookkeeping) -> ResilienceEvent:
        n_skip = bookkeeping.n_skipped
        n = len(bookkeeping.graph.tasks)
        return ResilienceEvent(
            "resume",
            detail=f"resumed from journal: skipping {n_skip}/{n} completed tasks",
            value=float(n_skip),
        )

    # ------------------------------------------------------------------
    # Real clock: worker threads, or one dispatcher over a process pool
    # ------------------------------------------------------------------
    def _run_threads(self, program: GraphProgram, bk: _Bookkeeping, journal) -> Trace:
        return _RealClockRun(self, program, bk, journal).run()

    # ------------------------------------------------------------------
    # Virtual clock: discrete-event simulation
    # ------------------------------------------------------------------
    def _run_virtual(self, program: GraphProgram, bk: _Bookkeeping, journal) -> Trace:
        mach = self.machine
        graph = program.graph
        ready = ReadyQueue(self.policy)
        events: list[ResilienceEvent] = []
        records: list[TaskRecord] = []
        ran_on: dict[int, int] = {}
        clock = 0.0
        sync_lat = mach.sync_latency_us * 1e-6
        plan = self.fault_plan

        initial = bk.start()
        if bk.n_skipped:
            events.append(self._resume_event(bk))
        for t in initial:
            ready.push(t)

        free_cores = list(range(mach.cores - 1, -1, -1))  # pop() yields core 0 first
        running: list[_Running] = []

        def record_event(ev: ResilienceEvent) -> None:
            events.append(ev)

        def start_tasks() -> None:
            while ready and free_cores:
                core = free_cores.pop()
                task = ready.pop()
                remote = sum(
                    1 for p in graph.preds[task.tid] if ran_on.get(p, core) != core
                )
                setup = mach.task_overhead_s(task.cost) + (sync_lat if remote else 0.0)
                if remote:
                    _counters.add_sync(remote)
                    _counters.add_words(int(task.cost.words))
                failure = None
                corrupt = False
                if plan is not None:
                    delay, failure, corrupt = plan.virtual_faults(
                        task, retry=self.retry, record=record_event
                    )
                    setup += delay
                work, rate, demand = mach.work_and_demand(task.cost)
                running.append(
                    _Running(
                        task=task,
                        core=core,
                        start=clock,
                        setup_left=setup,
                        work_left=work,
                        max_rate=rate,
                        demand=demand,
                        failure=failure,
                        corrupt=corrupt,
                    )
                )

        def complete(r: _Running) -> None:
            if r.failure is not None:
                failure = RuntimeFailure(
                    f"task {r.task.name!r} failed: {r.failure}",
                    task=r.task.name,
                    tid=r.task.tid,
                    failure_kind="injected",
                    trace=Trace(list(records), mach.cores, list(events)),
                )
                failure.__cause__ = r.failure
                raise failure
            ran_on[r.task.tid] = r.core
            records.append(
                TaskRecord(r.task.tid, r.task.name, r.task.kind, r.core, r.start, clock)
            )
            if self.execute and r.task.fn is not None:
                try:
                    r.task.fn()
                except RuntimeFailure:
                    raise
                except Exception as exc:
                    failure = RuntimeFailure(
                        f"task {r.task.name!r} failed: {exc}",
                        task=r.task.name,
                        tid=r.task.tid,
                        failure_kind="task_error",
                        trace=Trace(list(records), mach.cores, list(events)),
                    )
                    failure.__cause__ = exc
                    raise failure from exc
            if r.corrupt and plan is not None and self.execute:
                plan.apply_corruption(r.task, record=record_event)
            guard = (
                r.task.meta.get("health")
                if (self.execute and self.health_checks and r.task.meta)
                else None
            )
            if guard is not None:
                verdict = guard()
                if verdict is not None:
                    record_event(verdict)
                    if verdict.fatal:
                        raise RuntimeFailure(
                            f"health guard failed after task {r.task.name!r}: "
                            f"{verdict.detail}",
                            task=r.task.name,
                            tid=r.task.tid,
                            failure_kind="health",
                            trace=Trace(list(records), mach.cores, list(events)),
                        )
            if journal is not None:
                journal.record(r.task)
            for t in bk.complete(r.task.tid):
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

        return Trace(records, mach.cores, events, stats=bk.stats())


class _RealClockRun:
    """One real-clock run: its shared state and the task lifecycle.

    Thread workers (:meth:`worker`, one per core) and the process
    backend's single :meth:`dispatcher` are two ways of getting a
    task's work done; everything around the work — claiming a ready
    task, fault injection, retry, failure wrapping, health guards,
    journal, record, release — exists once, here, and both call it.
    """

    def __init__(self, engine: ExecutionEngine, program: GraphProgram, bk: _Bookkeeping, journal):
        self.engine = engine
        self.retry = engine.retry
        self.plan = engine.fault_plan
        self.health_checks = engine.health_checks
        self.graph = program.graph
        self.bk = bk
        self.journal = journal
        self.frontier = (
            engine.frontier if engine.frontier is not None else CentralFrontier(engine.policy)
        )
        self.lock = make_lock("engine.state")
        self.work_available = make_condition("engine.state", self.lock)
        self.errors: list[BaseException] = []
        self.records: list[TaskRecord] = []
        self.events: list[ResilienceEvent] = []
        self.ran_on: dict[int, int] = {}
        self.running: dict[int, tuple] = {}  # tid -> (task, monotonic start, core)
        self.progress = [time.monotonic()]  # last completion, for stall detection
        self.stop = threading.Event()  # watchdog fired: abandon stuck workers
        self.threads: list[threading.Thread] = []
        # The dispatcher's books (process backend only).
        self.load = [0] * engine.n_workers  # tasks in flight per worker
        self.redo: deque = deque()  # (task, attempt) to send again, ahead of the frontier
        self.stats: dict = {}
        self.t0 = time.perf_counter()

    def run(self) -> Trace:
        engine, bk = self.engine, self.bk
        initial = bk.start()
        if bk.n_skipped:
            self.events.append(engine._resume_event(bk))
        self.frontier.seed_tasks(initial)
        if engine.process_pool is None:
            self.threads = [
                threading.Thread(
                    target=self.worker, args=(c,), name=f"{engine.thread_name}-{c}", daemon=True
                )
                for c in range(engine.n_workers)
            ]
        else:
            self.threads = [
                threading.Thread(target=self.dispatcher, name=engine.thread_name, daemon=True)
            ]
        watchdog_active = (
            engine.task_timeout is not None
            or engine.stall_timeout is not None
            or engine.deadline is not None
        )
        for th in self.threads:
            th.start()
        watchdog_thread = None
        if watchdog_active:
            watchdog_thread = threading.Thread(
                target=self.watchdog, name="repro-watchdog", daemon=True
            )
            watchdog_thread.start()
        for th in self.threads:
            if not watchdog_active:
                th.join()
            else:
                # A stuck worker cannot be killed; once the watchdog
                # fires we stop waiting and abandon the daemon thread.
                while th.is_alive() and not self.stop.is_set():
                    th.join(0.05)
        if watchdog_thread is not None:
            self.stop.set()
            watchdog_thread.join(1.0)
        if not self.errors and not bk.finished:  # a worker thread died of a bug
            self.errors.append(
                RuntimeFailure(
                    "a worker thread ended with tasks outstanding", failure_kind="worker_death"
                )
            )
        if self.errors:
            exc = self.errors[0]
            if isinstance(exc, RuntimeFailure) and exc.trace is None:
                exc.trace = self.partial_trace()
            raise exc
        return Trace(self.records, engine.n_workers, self.events, stats={**bk.stats(), **self.stats})

    # ------------------------------------------------------------------
    # The lifecycle both execution paths share
    # ------------------------------------------------------------------
    def record_event(self, ev: ResilienceEvent) -> None:
        with self.lock:
            self.events.append(ev)

    def partial_trace(self) -> Trace:
        with self.lock:
            return Trace(list(self.records), self.engine.n_workers, list(self.events))

    def _claim(self, core: int):
        """Pop a ready task for *core* (lock held): ``(task, remote)``
        with its count of predecessors that ran elsewhere, or None."""
        task = self.frontier.pop(core)
        if task is None:
            return None
        remote = 0
        if self.frontier.counts_placement:
            # Predecessor placement is read under the lock: ran_on is
            # written by completing workers, so an unlocked read would
            # race (and miscount syncs).
            ran_on = self.ran_on
            for p in self.graph.preds[task.tid]:
                if ran_on.get(p, core) != core:
                    remote += 1
        self.running[task.tid] = (task, time.monotonic(), core)
        return task, remote

    @staticmethod
    def _count_remote(task: Task, remote: int) -> None:
        """Account inter-worker synchronization: one sync per remote
        predecessor, and the task's input volume."""
        _counters.add_sync(remote)
        _counters.add_words(int(task.cost.words))

    def _abort(self, task: Task, exc: BaseException) -> None:
        """Record a run-ending failure of *task* and wake everyone."""
        with self.work_available:
            self.running.pop(task.tid, None)
            self.errors.append(exc)
            self.bk.remaining -= 1
            self.work_available.notify_all()

    def _attempt_failed(self, task: Task, exc: BaseException, attempt: int) -> bool:
        """After a failed attempt: back off and return True when the
        :class:`RetryPolicy` grants another, else end the run with a
        structured failure and return False."""
        retry = self.retry
        if retry is not None and not self.errors and retry.should_retry(task, exc, attempt):
            self.record_event(
                ResilienceEvent(
                    "retry",
                    task.name,
                    task.tid,
                    detail=f"attempt {attempt + 1} after {type(exc).__name__}: {exc}",
                )
            )
            time.sleep(retry.delay(attempt, task.tid))
            return True
        if not isinstance(exc, RuntimeFailure):
            kind = "injected" if isinstance(exc, InjectedFault) else "task_error"
            failure = RuntimeFailure(
                f"task {task.name!r} failed after {attempt + 1} attempt(s): {exc}",
                task=task.name,
                tid=task.tid,
                failure_kind=kind,
            )
            failure.__cause__ = exc
            exc = failure
        self._abort(task, exc)
        return False

    def _run_inline(self, task: Task, attempt: int = 0):
        """Run *task*'s closure in this thread, under the fault plan and
        the retry policy; its ``(start, end)`` span, or None once the
        failure has ended the run."""
        plan, t0, clock = self.plan, self.t0, time.perf_counter
        while True:
            start = clock() - t0
            try:
                if plan is not None:
                    plan.pre_task(task, attempt, record=self.record_event)
                if task.fn is not None:
                    task.fn()
                if plan is not None:
                    plan.post_task(task, attempt, record=self.record_event)
            except BaseException as exc:  # noqa: BLE001 - handled by the policy
                if not self._attempt_failed(task, exc, attempt):
                    return None
                attempt += 1
                continue
            return start, clock() - t0

    def _finish(self, task: Task, core: int, start: float, end: float) -> bool:
        """Everything owed after *task*'s work succeeded: health guard,
        journal, record, release of its successors.  False when the run
        must end (the failure is recorded)."""
        # Numerical health guard, outside the lock (it reads only
        # blocks this task owns).
        fatal_event = None
        guard = task.meta.get("health") if (self.health_checks and task.meta) else None
        if guard is not None:
            verdict = guard()
            if verdict is not None:
                self.record_event(verdict)
                if verdict.fatal:
                    fatal_event = verdict
        # Write-ahead journal entry: only after the guards pass, so a
        # resumed run never skips a task whose output was found
        # corrupted.  Outside the lock (may hit disk).
        if fatal_event is None and self.journal is not None:
            try:
                self.journal.record(task)
            except Exception as exc:
                self._abort(
                    task,
                    RuntimeFailure(
                        f"journal write failed after task {task.name!r}: {exc}",
                        task=task.name,
                        tid=task.tid,
                        failure_kind="task_error",
                    ),
                )
                return False
        with self.work_available:
            self.running.pop(task.tid, None)
            self.progress[0] = time.monotonic()
            self.ran_on[task.tid] = core
            self.records.append(TaskRecord(task.tid, task.name, task.kind, core, start, end))
            if fatal_event is not None:
                self.errors.append(
                    RuntimeFailure(
                        f"health guard failed after task {task.name!r}: {fatal_event.detail}",
                        task=task.name,
                        tid=task.tid,
                        failure_kind="health",
                    )
                )
                self.bk.remaining -= 1
                self.work_available.notify_all()
                return False
            # complete() may expand the program: emitting the next
            # window(s) happens here, under the lock, while the workers
            # keep executing their current tasks.
            self.frontier.push_released(self.bk.complete(task.tid), core)
            self.work_available.notify_all()
        return True

    # ------------------------------------------------------------------
    # Threads: one worker per core
    # ------------------------------------------------------------------
    def worker(self, core: int) -> None:
        bk, frontier, errors = self.bk, self.frontier, self.errors
        while True:
            with self.work_available:
                while not frontier and not bk.finished and not errors:
                    # Timed wait + re-check: a missed notify (however
                    # unlikely) then costs one poll period, never a
                    # hung worker that only the watchdog could reap.
                    self.work_available.wait(0.1)
                claimed = None if (bk.finished or errors) else self._claim(core)
                if claimed is None:  # done, failing, or (unreachable) an empty pop
                    self.work_available.notify_all()
                    return
            task, remote = claimed
            if remote:
                self._count_remote(task, remote)
            span = self._run_inline(task)
            if span is None or not self._finish(task, core, *span):
                return

    # ------------------------------------------------------------------
    # Processes: one dispatcher for the whole pool
    # ------------------------------------------------------------------
    def dispatcher(self) -> None:
        """Feed the worker pool from one loop.

        Each pass deals ready tasks to the least-loaded worker (at most
        :data:`_MAX_INFLIGHT` in flight each), sends what one worker
        was dealt as one message, runs descriptor-less tasks inline,
        then sleeps in one ``poll`` over the pipes with messages out
        and takes each reply apart into per-task acks (:meth:`_absorb`).
        Once the run is failing nothing new is dealt but messages
        already out are still collected — their tasks ran, so they are
        journaled and recorded; only the watchdog's ``stop`` abandons
        them.
        """
        pool, plan = self.engine.process_pool, self.plan
        bk, frontier, load, redo = self.bk, self.frontier, self.load, self.redo
        out: dict[int, tuple] = {}  # ticket -> (core, [(task, attempt)], sent at)
        poller = select.poll()
        watched: dict[int, int] = {}  # fd -> core, pipes with a message of ours out
        wake_r, wake_w = os.pipe()  # written by a sharing engine that drained our reply
        os.set_blocking(wake_w, False)
        poller.register(wake_r, select.POLLIN)
        messages, dispatch_s = 0, 0.0

        def wake() -> None:
            try:
                os.write(wake_w, b"\0")
            except BlockingIOError:  # pipe full: a wake is pending already
                pass

        try:
            while not self.stop.is_set():
                dealt: list[tuple] = []
                with self.work_available:
                    if not self.errors:
                        if bk.finished:
                            break
                        while (redo or frontier) and min(load) < _MAX_INFLIGHT:
                            core = load.index(min(load))
                            if redo:
                                task, attempt = redo.popleft()
                                self.running[task.tid] = (task, time.monotonic(), core)
                                dealt.append((core, task, attempt, 0))
                            else:
                                task, remote = self._claim(core)
                                dealt.append((core, task, 0, remote))
                            load[core] += 1
                    if not dealt and not out:
                        if self.errors:
                            break
                        # Nothing ready, nothing out: not a state a valid
                        # DAG reaches; idle until the watchdog rules.
                        self.work_available.wait(0.1)
                        continue
                batches: dict[int, list] = {}
                inline = []
                for core, task, attempt, remote in dealt:
                    if remote:
                        self._count_remote(task, remote)
                    if not (task.meta and task.meta.get("op")):
                        inline.append((core, task, attempt))
                        continue
                    try:
                        if plan is not None:
                            plan.pre_task(task, attempt, record=self.record_event)
                    except BaseException as exc:  # noqa: BLE001 - handled by the policy
                        load[core] -= 1
                        if self._attempt_failed(task, exc, attempt):
                            redo.append((task, attempt + 1))
                        continue
                    batches.setdefault(core, []).append((task, attempt))
                for core, batch in batches.items():
                    sent = time.perf_counter()
                    try:
                        ticket = pool.submit(core, [t.meta["op"] for t, _ in batch], wake)
                    except Exception as exc:  # worker down and throttled, pool closed
                        dispatch_s += self._absorb(core, batch, exc, sent)
                        continue
                    out[ticket] = (core, batch, sent)
                    messages += 1
                    fd = pool.fileno(core)
                    if fd is not None and watched.get(fd) != core:
                        poller.register(fd, select.POLLIN)
                        watched[fd] = core
                for core, task, attempt in inline:
                    load[core] -= 1
                    span = self._run_inline(task, attempt)
                    if span is not None:
                        self._finish(task, core, *span)
                if not out:
                    continue
                # Wait for a reply -- unless this pass left something to
                # deal: inline tasks release successors, a retry is due.
                busy = inline or (redo and min(load) < _MAX_INFLIGHT)
                ready = poller.poll(0 if busy else _POLL_S * 1000)
                cores = {watched.get(fd) for fd, _ in ready}
                if not ready:
                    if busy:
                        continue
                    # A poll period without a reply: make sure silence
                    # is not a death whose hang-up never reached us.
                    for core in {core for core, _, _ in out.values()}:
                        pool.ensure_alive(core)
                elif None in cores:  # the wake pipe: our reply may be on any core
                    os.read(wake_r, 4096)
                    cores = set(range(len(load)))
                for ticket, (core, batch, sent) in list(out.items()):
                    if core not in cores:
                        continue
                    try:
                        reply = pool.collect(core, ticket, block=False)
                    except RuntimeFailure as exc:  # the worker died with it in flight
                        reply = exc
                    if reply is not None:
                        del out[ticket]
                        dispatch_s += self._absorb(core, batch, reply, sent)
                for fd, core in list(watched.items()):
                    if pool.fileno(core) != fd or not any(c == core for c, _, _ in out.values()):
                        poller.unregister(fd)
                        del watched[fd]
        finally:
            for ticket, (core, _, _) in out.items():
                pool.abandon(core, ticket)
            os.close(wake_r)
            os.close(wake_w)
            self.stats = {"messages": messages, "dispatch_seconds": dispatch_s}

    def _absorb(self, core: int, batch: list, reply, sent: float) -> float:
        """Take one message's reply apart: each task gets its own ack.

        A task whose op succeeded has the fault plan's post-task hook
        run, then goes through :meth:`_finish` with the *worker's* span
        (its results are already in the shared store buffers the
        parent's guards read — nothing is copied back); one that failed
        follows the retry policy (re-sent via ``redo``, or the run ends);
        one the worker never started is re-dealt at the same attempt.
        A *reply* that is a failure (the worker died, or was down) is
        every task's failure.  Returns the message's dispatch seconds:
        send-to-ack wall minus the worker's own spans.
        """
        now = time.perf_counter()
        redo = self.redo
        self.load[core] -= len(batch)
        if isinstance(reply, BaseException):
            reply = [(False, reply, now, now, None)] * len(batch)
        plan = self.plan
        worked = 0.0
        for (task, attempt), (ok, err, start, end, _) in zip(batch, reply, strict=True):
            if ok is None:
                redo.append((task, attempt))
                continue
            worked += end - start
            if ok:
                try:
                    if plan is not None:
                        plan.post_task(task, attempt, record=self.record_event)
                except BaseException as exc:  # noqa: BLE001 - handled by the policy
                    err = exc
                else:
                    self._finish(task, core, start - self.t0, end - self.t0)
                    continue
            if self._attempt_failed(task, err, attempt):
                redo.append((task, attempt + 1))
        return (now - sent) - worked

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def watchdog(self) -> None:
        engine, bk, running = self.engine, self.bk, self.running
        deadlock_polls = 0
        while not self.stop.wait(engine.watchdog_poll_s):
            with self.work_available:
                if bk.remaining <= 0 or self.errors:
                    return
                n = bk.registered
                done = f"{n - bk.remaining}/{n}"
                now = time.monotonic()
                if engine.deadline is not None and now >= engine.deadline:
                    # The run's absolute deadline passed.  Tasks may
                    # still be progressing — this is *lateness*, not a
                    # hang — so it is reported as its own kind.
                    return self._trip(
                        "deadline",
                        f"run deadline passed with {done} tasks done",
                        f"run exceeded its deadline ({done} tasks done)",
                        value=now - engine.deadline,
                    )
                if engine.task_timeout is not None:
                    for task, ts, core in list(running.values()):
                        if now - ts > engine.task_timeout:
                            return self._trip(
                                "timeout",
                                f"exceeded task_timeout={engine.task_timeout:.3g}s on worker {core}",
                                f"task {task.name!r} stalled: ran longer than "
                                f"{engine.task_timeout:.3g}s on worker {core}",
                                task,
                                value=now - ts,
                            )
                if engine.stall_timeout is not None and now - self.progress[0] > engine.stall_timeout:
                    stalled = ", ".join(t.name for t, _, _ in running.values()) or "none"
                    return self._trip(
                        "stall",
                        f"no task completed for {engine.stall_timeout:.3g}s (running: {stalled})",
                        f"runtime stalled: no task completed for {engine.stall_timeout:.3g}s "
                        f"({done} done, running: {stalled})",
                    )
                # A task is in the hands of thread `core`, or of the
                # one dispatcher thread.
                dead = [
                    (task, core)
                    for task, _, core in running.values()
                    if not self.threads[min(core, len(self.threads) - 1)].is_alive()
                ]
                if dead:
                    task, core = dead[0]
                    return self._trip(
                        "worker_death",
                        f"worker {core} died with task in flight",
                        f"worker {core} died while running task {task.name!r}",
                        task,
                    )
                # Deadlocked queue: tasks remain, nothing runs, nothing
                # is ready.  Cannot happen for a valid DAG; confirmed
                # over two polls to dodge races.
                if bk.remaining > 0 and not running and not self.frontier:
                    deadlock_polls += 1
                    if deadlock_polls >= 2:
                        return self._trip(
                            "deadlock",
                            f"{done} tasks done, none ready or running",
                            f"runtime deadlock: {done} tasks completed, none ready or running",
                        )
                else:
                    deadlock_polls = 0

    def _trip(self, kind: str, detail: str, message: str, task: Task | None = None, value=None):
        """The watchdog's verdict (lock held): log the fatal event, fail
        the run, let every waiter go."""
        name, tid = ("", -1) if task is None else (task.name, task.tid)
        self.events.append(ResilienceEvent(kind, name, tid, detail=detail, value=value, fatal=True))
        self.errors.append(RuntimeFailure(message, task=name, tid=tid, failure_kind=kind))
        self.stop.set()
        self.work_available.notify_all()

