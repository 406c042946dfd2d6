"""The execution engine: the one real-clock executor.

:class:`ExecutionEngine` owns the task lifecycle — ready tracking,
skip of completed tasks + resume event, retry, fault injection, health guards,
failure wrapping, tracing and the watchdog — and *is* the executor:
:class:`~repro.runtime.threaded.ThreadedExecutor` is this class under
its public name, :class:`~repro.runtime.stealing.WorkStealingExecutor`
a subclass that makes a :class:`StealingFrontier` per run instead of a
:class:`CentralFrontier`, :class:`~repro.runtime.process.ProcessExecutor`
a subclass that owns the worker pool its runs dispatch to.  Tasks run on
worker threads, or in a pool's worker processes fed by one dispatcher.

The virtual clock is not here: the discrete-event loop lives in
:mod:`repro.runtime.simulated` and shares :class:`_Bookkeeping`,
:func:`failure` and :func:`health_guard` with this module.

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

# Module-style import: counters itself imports repro.runtime.sync, so a
# from-import here would fail when counters is the first module loaded.
from repro import counters as _counters
from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import InjectedFault
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.program import GraphProgram, as_program
from repro.runtime.scheduler import POLICIES, ReadyQueue
from repro.runtime.sync import make_condition, make_lock
from repro.runtime.task import Task
from repro.runtime.trace import TaskRecord, Trace

__all__ = ["ExecutionEngine", "CentralFrontier", "StealingFrontier"]

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

    def pop(self, core: int) -> tuple[Task | None, bool]:
        """``(task, stolen)``; a shared queue never steals."""
        return (self._queue.pop() if self._queue else None), False

    def __bool__(self) -> bool:
        return bool(self._queue)


class StealingFrontier:
    """Per-worker deques with deterministic work stealing.

    Tasks released by a completion go to the completing worker's own
    deque (producer–consumer locality); idle workers scan victims in a
    seeded deterministic order and steal from the head (FIFO); a steal
    is reported to the caller, which counts one sync for it outside the
    engine lock.  Placement is not otherwise accounted.
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

    def pop(self, core: int) -> tuple[Task | None, bool]:
        """Own deque first (LIFO for locality), then steal (FIFO):
        ``(task, stolen)``."""
        own = self._deques[core]
        if own:
            return own.pop(), False
        for off in range(1, self.n_workers):
            victim = (core + self.seed + off) % self.n_workers
            if self._deques[victim]:
                return self._deques[victim].popleft(), True
        return None, False

    def __bool__(self) -> bool:
        return any(self._deques)


class _Bookkeeping:
    """Frontier accounting over a growing graph (callers synchronize).

    Registers emitted windows, tracks in-degrees against completed
    tasks, marks the tasks a resume skips done at registration, and expands the
    program so ``lookahead`` windows exist past the lowest incomplete
    one.  The real clock (this module) and the virtual one
    (:mod:`repro.runtime.simulated`) share this logic.
    """

    @classmethod
    def for_run(cls, source, journal=None) -> "_Bookkeeping":
        """The books of one run of *source* (a :class:`TaskGraph` or a
        :class:`GraphProgram`): the tasks *journal* names are skipped at
        registration; resolve the program's look-ahead depth."""
        done_names = frozenset(journal) if journal is not None else frozenset()
        program = as_program(source)
        depth = program.lookahead
        if depth is None:
            from repro.core.priorities import lookahead_depth

            depth = lookahead_depth()
        if depth < 0:
            depth = program.n_windows  # infinite: emit everything up front
        return cls(program, done_names, depth)

    def __init__(self, program: GraphProgram, done_names: frozenset[str], depth: int) -> None:
        self.program = program
        self.graph = program.graph
        self.done_names = done_names
        self.depth = depth
        self._emit_before = program.emit_seconds  # a reused program emitted in earlier runs
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

    def start(self, events: list) -> list[Task]:
        """Register pre-emitted windows, expand to the initial look-ahead
        target; returns the ready roots in tid order.  Tasks skipped as
        completed are announced by one ``resume`` event on *events*."""
        ready: list[Task] = []
        for w, (s, e) in enumerate(self.program.windows):
            ready.extend(self._register(w, self.graph.tasks[s:e]))
        ready.extend(self.expand())
        if self.n_skipped:
            n_skip, n = self.n_skipped, len(self.graph.tasks)
            events.append(
                ResilienceEvent(
                    "resume",
                    detail=f"resumed from journal: skipping {n_skip}/{n} completed tasks",
                    value=float(n_skip),
                )
            )
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
                # Completed before the run starts.  Its ancestors are
                # named too (a resume skips a boundary's whole prefix),
                # so no release bookkeeping is owed.
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
            "emit_seconds": self.program.emit_seconds - self._emit_before,
            "skipped": self.n_skipped,
        }


def failure(kind: str, message: str, task: Task | None = None, cause=None) -> RuntimeFailure:
    """The one structured failure both clocks raise: *kind* is its
    ``failure_kind``, *task* the offender (None: the run itself) and
    *cause* the exception it wraps.  The partial trace is attached where
    the run ends."""
    name, tid = ("", -1) if task is None else (task.name, task.tid)
    exc = RuntimeFailure(message, task=name, tid=tid, failure_kind=kind)
    exc.__cause__ = cause
    return exc


def health_guard(task: Task, health_checks: bool, record) -> RuntimeFailure | None:
    """What a task owes between its work succeeding and its successors'
    release, on either clock: the numerical health guard (it reads only
    blocks the task owns; verdicts go to *record*).  Returns the
    ``"health"`` failure that must end the run, else None."""
    guard = task.meta.get("health") if (health_checks and task.meta) else None
    if guard is not None:
        verdict = guard()
        if verdict is not None:
            record(verdict)
            if verdict.fatal:
                message = f"health guard failed after task {task.name!r}: {verdict.detail}"
                return failure("health", message, task)
    return None


class ExecutionEngine:
    """Execute task graphs on worker threads, or on a pool of processes.

    One instance may :meth:`run` repeatedly and from several threads at
    once: everything a run mutates (frontier, books, trace) is made per
    run.

    Parameters
    ----------
    n_workers:
        Worker threads (the paper's "available cores"), or the worker
        processes of *process_pool* a run deals to.
    policy:
        Ready-queue policy, ``"priority"`` (default, the paper's
        look-ahead scheduling via task priorities) or ``"fifo"``.
    retry:
        Optional :class:`~repro.resilience.recovery.RetryPolicy`:
        failed tasks are re-run with backoff when that is safe
        (idempotent tasks, pre-execution injected faults).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` injecting
        deterministic faults (tests and resilience benchmarks).
    task_timeout:
        Wall-clock seconds one task may run before the watchdog
        declares it stalled (None disables); in a worker process's
        queue, that long per task in flight there (docs/RUNTIME.md,
        "Timing").
    stall_timeout:
        Wall-clock seconds without *any* task completing before the
        watchdog declares the run stalled (None disables).  Either way
        a hang becomes a structured failure, never a blocked caller.
    deadline:
        Optional absolute ``time.monotonic()`` timestamp: once passed,
        the watchdog aborts the run with a structured
        ``failure_kind="deadline"`` :class:`RuntimeFailure` even while
        individual tasks keep making progress.  This is how the service
        maps a *per-request* deadline onto a run whose total task count
        exceeds any sensible per-task timeout.
    health_checks:
        Run the ``meta["health"]`` guards the CALU/CAQR builders attach
        to tasks (NaN/Inf and pivot-growth monitors; default True); a
        fatal verdict aborts the run instead of letting a corrupted
        factorization escape.
    watchdog_poll_s / thread_name:
        The watchdog's polling period; the worker threads' name prefix.
    process_pool:
        A :class:`~repro.runtime.process._WorkerPool`: tasks carrying a
        ``meta["op"]`` descriptor then run in its worker processes, fed
        by one dispatcher loop instead of ``n_workers`` threads (see
        :meth:`_RealClockRun.dispatcher`); the pool may be shared by
        concurrent engines.

    Every failure — a task's own error included, whether or not any
    resilience option is set — surfaces as one structured
    :class:`~repro.resilience.recovery.RuntimeFailure` carrying its
    ``failure_kind`` and the partial :class:`Trace`.
    """

    def __init__(
        self,
        n_workers: int = 4,
        policy: str = "priority",
        *,
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
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}; expected one of {POLICIES}")
        for name, seconds in (
            ("task_timeout", task_timeout),
            ("stall_timeout", stall_timeout),
            ("watchdog_poll_s", watchdog_poll_s),
        ):
            if seconds is not None and seconds < 0:
                raise ValueError(f"{name} must be >= 0, got {seconds}")
        self.n_workers = n_workers
        self.policy = policy
        self.retry = retry
        self.fault_plan = fault_plan
        self.task_timeout = task_timeout
        self.stall_timeout = stall_timeout
        self.deadline = deadline
        self.health_checks = health_checks
        self.watchdog_poll_s = watchdog_poll_s
        self.thread_name = thread_name
        self._pool = process_pool

    @property
    def pool(self):
        """The worker pool runs dispatch to (None: worker threads)."""
        return self._pool

    def new_frontier(self):
        """A fresh ready-task frontier; every run makes its own."""
        return CentralFrontier(self.policy)

    def run(self, source, journal=None) -> Trace:
        """Run a :class:`TaskGraph` or :class:`GraphProgram` to completion.

        *journal* (read, never written) names tasks already completed —
        a checkpoint's restored prefix: they are skipped at registration
        (one ``resume`` event), the resume half of the checkpoint/restart
        path.
        """
        return _RealClockRun(self, _Bookkeeping.for_run(source, journal)).run()


class _RealClockRun:
    """One real-clock run: its shared state and the task lifecycle.

    Thread workers (:meth:`worker`, one per core) and the process
    backend's single :meth:`dispatcher` are two ways of getting a
    task's work done; everything around the work — claiming a ready
    task, fault injection, retry, failure wrapping, health guards,
    record, release — exists once, here, and both call it.
    """

    def __init__(self, engine: ExecutionEngine, bk: _Bookkeeping):
        self.engine = engine
        self.retry = engine.retry
        self.plan = engine.fault_plan
        self.pool = engine.pool
        self.graph = bk.graph
        self.bk = bk
        self.frontier = engine.new_frontier()
        self.lock = make_lock("engine.state")
        self.work_available = make_condition("engine.state", self.lock)
        self.errors: list[BaseException] = []
        self.records: list[TaskRecord] = []
        self.events: list[ResilienceEvent] = []
        self.ran_on: dict[int, int] = {}
        # tid -> (task, monotonic claim time, core, task_timeouts allowed)
        self.running: dict[int, tuple] = {}
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
        self.frontier.seed_tasks(bk.start(self.events))
        if self.pool is None:
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
        for th in self.threads:
            th.start()
        watchdog_thread = None
        if any(t is not None for t in (engine.task_timeout, engine.stall_timeout, engine.deadline)):
            watchdog_thread = threading.Thread(
                target=self.watchdog, name="repro-watchdog", daemon=True
            )
            watchdog_thread.start()
        for th in self.threads:
            if watchdog_thread is None:
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
                failure("worker_death", "a worker thread ended with tasks outstanding")
            )
        if self.errors:
            exc = self.errors[0]
            if isinstance(exc, RuntimeFailure) and exc.trace is None:
                with self.lock:  # an abandoned worker may still be appending
                    exc.trace = Trace(list(self.records), engine.n_workers, list(self.events))
            raise exc
        return Trace(self.records, engine.n_workers, self.events, stats={**bk.stats(), **self.stats})

    # ------------------------------------------------------------------
    # The lifecycle both execution paths share
    # ------------------------------------------------------------------
    def record_event(self, ev: ResilienceEvent) -> None:
        with self.lock:
            self.events.append(ev)

    def _claim(self, core: int):
        """Pop a ready task for *core* (lock held): ``(task, remote)``
        with the syncs it owes — one per predecessor that ran elsewhere,
        one for a steal — or None."""
        task, stolen = self.frontier.pop(core)
        if task is None:
            return None
        remote = int(stolen)
        if self.frontier.counts_placement:
            # Predecessor placement is read under the lock: ran_on is
            # written by completing workers, so an unlocked read would
            # race (and miscount syncs).
            ran_on = self.ran_on
            for p in self.graph.preds[task.tid]:
                if ran_on.get(p, core) != core:
                    remote += 1
        self.running[task.tid] = (task, time.monotonic(), core, 1)
        return task, remote

    def _count_remote(self, task: Task, remote: int) -> None:
        """Account inter-worker synchronization (outside the lock): the
        syncs :meth:`_claim` found and, where placement is accounted,
        the task's input volume."""
        _counters.add_sync(remote)
        if self.frontier.counts_placement:
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
            exc = failure(
                "injected" if isinstance(exc, InjectedFault) else "task_error",
                f"task {task.name!r} failed after {attempt + 1} attempt(s): {exc}",
                task,
                exc,
            )
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
        record, release of its successors.  False when the run must end
        (the failure is recorded)."""
        # Outside the lock: the guard reads only blocks this task owns.
        failed = health_guard(task, self.engine.health_checks, self.record_event)
        with self.work_available:
            self.running.pop(task.tid, None)
            self.progress[0] = time.monotonic()
            self.ran_on[task.tid] = core
            self.records.append(TaskRecord(task.tid, task.name, task.kind, core, start, end))
            if failed is not None:
                self.errors.append(failed)
                self.bk.remaining -= 1
            else:
                # complete() may expand the program: emitting the next
                # window(s) happens here, under the lock, while the
                # workers keep executing their current tasks.
                self.frontier.push_released(self.bk.complete(task.tid), core)
            self.work_available.notify_all()
        return failed is None

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
        recorded; only the watchdog's ``stop`` abandons
        them.
        """
        pool, plan = self.pool, self.plan
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
                                dealt.append((core, task, attempt, 0))
                            else:
                                task, remote = self._claim(core)
                                dealt.append((core, task, 0, remote))
                            load[core] += 1
                        # A worker acks a whole message at once and
                        # serves its messages in order, so a task's ack
                        # may wait for everything now in flight there:
                        # it is allowed one task_timeout for each.
                        now = time.monotonic()
                        for core, task, _, _ in dealt:
                            self.running[task.tid] = (task, now, core, load[core])
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
                    with self.lock:  # it starts now, in this thread: one task_timeout
                        self.running[task.tid] = (task, time.monotonic(), core, 1)
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
                    for task, ts, core, allowed in list(running.values()):
                        if now - ts > engine.task_timeout * allowed:
                            return self._trip(
                                "timeout",
                                f"exceeded task_timeout={engine.task_timeout:.3g}s on worker {core}",
                                f"task {task.name!r} stalled: ran longer than "
                                f"{engine.task_timeout:.3g}s on worker {core}",
                                task,
                                value=now - ts,
                            )
                if engine.stall_timeout is not None and now - self.progress[0] > engine.stall_timeout:
                    stalled = ", ".join(t.name for t, *_ in running.values()) or "none"
                    return self._trip(
                        "stall",
                        f"no task completed for {engine.stall_timeout:.3g}s (running: {stalled})",
                        f"runtime stalled: no task completed for {engine.stall_timeout:.3g}s "
                        f"({done} done, running: {stalled})",
                    )
                # A task is in the hands of thread `core`, or of the
                # one dispatcher thread.
                for task, _, core, _ in running.values():
                    if not self.threads[min(core, len(self.threads) - 1)].is_alive():
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
        exc = failure(kind, message, task)
        self.events.append(
            ResilienceEvent(kind, exc.task, exc.tid, detail=detail, value=value, fatal=True)
        )
        self.errors.append(exc)
        self.stop.set()
        self.work_available.notify_all()
