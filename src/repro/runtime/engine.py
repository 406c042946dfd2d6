"""The execution engine: the one real-clock executor.

:class:`ExecutionEngine` owns the task lifecycle — ready tracking,
skip of completed tasks + resume event, retry, fault injection, health guards,
failure wrapping, tracing and the watchdog — and *is* the executor:
:class:`~repro.runtime.threaded.ThreadedExecutor` is this class under
its public name, :class:`~repro.runtime.process.ProcessExecutor` a
subclass that owns the worker pool its runs dispatch to.  Every run
keeps one :class:`~repro.runtime.scheduler.ReadyQueue` — the paper's
dynamic scheduler, whose look-ahead lives in the task priorities — that
all cores pop.  Tasks run on worker threads, or in a pool's worker
processes and the one dispatcher that feeds them, itself a lane.

Fault injection, retry and the health guards live here only: the
virtual clock (:mod:`repro.runtime.simulated`) prices a graph without
running it, and shares :class:`_Bookkeeping` with this module.

A run is over a complete :class:`~repro.runtime.graph.TaskGraph`: a
plan's graph is emitted once, when it is compiled, and a
:class:`~repro.runtime.program.GraphProgram` handed to :meth:`run` is
materialized on entry — nothing emits while tasks run.
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import deque
from functools import partial

# Module-style import: counters itself imports repro.runtime.sync, so a
# from-import here would fail when counters is the first module loaded.
from repro import counters as _counters
from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import InjectedFault
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.sync import make_condition, make_lock
from repro.runtime.task import Task
from repro.runtime.trace import TaskRecord, Trace

__all__ = ["ExecutionEngine"]

#: Tasks in flight per worker *process* under the dispatcher (queued in
#: its pipe or running); the dispatcher's own lane runs one at a time.
#: Deep enough that one message carries several small tasks, shallow
#: enough that a task dealt to a process never waits behind more than
#: three; measured as the knee among 2/4/8 (docs/RUNTIME.md).  Not a
#: tuning knob.
_MAX_INFLIGHT = 4
#: While the dispatcher holds the pool's parent-lane token, a descriptor
#: task below this many flops runs on its own lane in that pass instead
#: of being dealt: a round trip to a worker costs the dispatcher about
#: what such a task takes (tens of µs).  2**17 keeps at home the small
#: LU tasks of a square CALU and ships every QR task and the tall-skinny
#: LU leaves (docs/RUNTIME.md).  Not a tuning knob.
_SHIP_MIN_FLOPS = 2**17
_POLL_S = 0.05  # dispatcher's wait for replies before it re-checks liveness and abort


class _Bookkeeping:
    """Ready accounting over one run's graph (callers synchronize).

    Tracks in-degrees against completed tasks and marks the tasks a
    resume skips done at the start.  The real clock (this module) and
    the virtual one (:mod:`repro.runtime.simulated`) share this logic.
    """

    def __init__(self, source: TaskGraph | GraphProgram, journal=None) -> None:
        """The books of one run of *source*; the tasks *journal* names
        are skipped."""
        self.graph = source.materialize() if isinstance(source, GraphProgram) else source
        self.done_names = frozenset(journal) if journal is not None else frozenset()
        self.done: list[bool] = []
        self.indeg: list[int] = []
        self.remaining = 0  # not skipped, not completed
        self.n_skipped = 0

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def start(self, events: list) -> list[Task]:
        """Register every task; returns the ready roots in tid order.
        Tasks skipped as completed are announced by one ``resume`` event
        on *events*."""
        ready: list[Task] = []
        for task in self.graph.tasks:
            if task.name in self.done_names:
                # Completed before the run starts.  Its ancestors are
                # named too (a resume skips a boundary's whole prefix),
                # so no release bookkeeping is owed.
                self.done.append(True)
                self.indeg.append(0)
                self.n_skipped += 1
                continue
            nd = sum(1 for p in self.graph.preds[task.tid] if not self.done[p])
            self.done.append(False)
            self.indeg.append(nd)
            if nd == 0:
                ready.append(task)
        n = len(self.graph.tasks)
        self.remaining = n - self.n_skipped
        if self.n_skipped:
            events.append(
                ResilienceEvent(
                    "resume",
                    detail=f"resumed from journal: skipping {self.n_skipped}/{n} completed tasks",
                    value=float(self.n_skipped),
                )
            )
        return ready

    def complete(self, tid: int) -> list[Task]:
        """Mark *tid* done; returns the successors it made ready."""
        self.done[tid] = True
        released: list[Task] = []
        for s in self.graph.succs[tid]:
            if self.done[s]:
                continue
            self.indeg[s] -= 1
            if self.indeg[s] == 0:
                released.append(self.graph.tasks[s])
        self.remaining -= 1
        return released

    def stats(self) -> dict:
        n = len(self.graph.tasks)
        # Every task not skipped is live from the start: nothing emits mid-run.
        return {"n_tasks": n, "peak_live_tasks": n - self.n_skipped, "skipped": self.n_skipped}


def _failure(kind: str, message: str, task: Task | None = None, cause=None) -> RuntimeFailure:
    """The one structured failure a run raises: *kind* is its
    ``failure_kind``, *task* the offender (None: the run itself) and
    *cause* the exception it wraps.  The partial trace is attached where
    the run ends."""
    name, tid = ("", -1) if task is None else (task.name, task.tid)
    exc = RuntimeFailure(message, task=name, tid=tid, failure_kind=kind)
    exc.__cause__ = cause
    return exc


def _health_guard(task: Task, record) -> RuntimeFailure | None:
    """What a task owes between its work succeeding and its successors'
    release: the numerical health guard (it reads only
    blocks the task owns; verdicts go to *record*).  Returns the
    ``"health"`` failure that must end the run, else None."""
    guard = task.meta.get("health") if task.meta else None
    if guard is not None:
        verdict = guard()
        if verdict is not None:
            record(verdict)
            if verdict.fatal:
                message = f"health guard failed after task {task.name!r}: {verdict.detail}"
                return _failure("health", message, task)
    return None


class ExecutionEngine:
    """Execute task graphs on worker threads, or on a pool of processes.

    One instance may :meth:`run` repeatedly and from several threads at
    once: everything a run mutates (ready queue, books, trace) is made per
    run.

    Parameters
    ----------
    n_workers:
        Worker threads (the paper's "available cores"), or the lanes of
        a run over *process_pool*: ``n_workers - 1`` of its worker
        processes plus the dispatcher thread (with ``n_workers == 1``,
        one process and no dispatcher lane).
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
    watchdog_poll_s / thread_name:
        The watchdog's polling period; the worker threads' name prefix.
    process_pool:
        A :class:`~repro.runtime.process._WorkerPool` of at least
        ``max(1, n_workers - 1)`` processes: tasks carrying a
        ``meta["op"]`` descriptor then run in its worker processes or
        on the dispatcher's own lane, one loop instead of ``n_workers``
        threads (see :meth:`_RealClockRun.dispatcher`); the pool may be
        shared by concurrent engines.

    After each task the ``meta["health"]`` guard a builder attached, if
    any, runs (the drivers' ``guards=`` decides whether they attach
    one); a fatal verdict aborts the run instead of letting a corrupted
    factorization escape.

    Every failure — a task's own error included, whether or not any
    resilience option is set — surfaces as one structured
    :class:`~repro.resilience.recovery.RuntimeFailure` carrying its
    ``failure_kind`` and the partial :class:`Trace`.
    """

    def __init__(
        self,
        n_workers: int = 4,
        *,
        retry=None,
        fault_plan=None,
        task_timeout: float | None = None,
        stall_timeout: float | None = None,
        deadline: float | None = None,
        watchdog_poll_s: float = 0.02,
        thread_name: str = "repro-worker",
        process_pool=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        for name, seconds in (
            ("task_timeout", task_timeout),
            ("stall_timeout", stall_timeout),
            ("watchdog_poll_s", watchdog_poll_s),
        ):
            if seconds is not None and seconds < 0:
                raise ValueError(f"{name} must be >= 0, got {seconds}")
        if process_pool is not None and process_pool.n_workers < max(1, n_workers - 1):
            raise ValueError(
                f"an engine of {n_workers} lanes needs {max(1, n_workers - 1)} worker"
                f" processes; the pool has {process_pool.n_workers}"
            )
        self.n_workers = n_workers
        self.retry = retry
        self.fault_plan = fault_plan
        self.task_timeout = task_timeout
        self.stall_timeout = stall_timeout
        self.deadline = deadline
        self.watchdog_poll_s = watchdog_poll_s
        self.thread_name = thread_name
        self._pool = process_pool

    @property
    def pool(self):
        """The worker pool runs dispatch to (None: worker threads)."""
        return self._pool

    def run(self, source, journal=None) -> Trace:
        """Run a :class:`TaskGraph` (a :class:`GraphProgram` is
        materialized first) to completion.

        *journal* (read, never written) names tasks already completed —
        a checkpoint's restored prefix: they are skipped at the start
        (one ``resume`` event), the resume half of the checkpoint/restart
        path.
        """
        return _RealClockRun(self, source, journal).run()


class _RealClockRun:
    """One real-clock run: its shared state and the task lifecycle.

    Thread workers (:meth:`worker`, one per core) and the process
    backend's single :meth:`dispatcher` are two ways of getting a
    task's work done; everything around the work — claiming a ready
    task, fault injection, retry, failure wrapping, health guards,
    record, release — exists once, here, and both call it.
    """

    def __init__(self, engine: ExecutionEngine, source, journal=None):
        self.t0 = time.perf_counter()  # the run's clock starts on entering run
        bk = _Bookkeeping(source, journal)
        self.engine = engine
        self.retry = engine.retry
        self.plan = engine.fault_plan
        self.pool = engine.pool
        self.graph = bk.graph
        self.bk = bk
        self.ready = ReadyQueue()  # the paper's one ready queue, shared by every core
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
        self.over = threading.Event()  # a run thread left: the run ended, or the thread died
        self.threads: list[threading.Thread] = []
        # The dispatcher's books (process backend only): tasks in flight
        # per worker process, lanes 0..W-2 (lane 0 when W == 1).
        self.load = [0] * max(1, engine.n_workers - 1)
        self.redo: deque = deque()  # (task, attempt) to send again, ahead of the queue
        self.stats: dict = {}

    def run(self) -> Trace:
        engine, bk = self.engine, self.bk
        roots = bk.start(self.events)
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
        # Threads start in an order that lets each reach its first wait
        # while no task holds the GIL: one that has not would queue for
        # it behind the tasks and take it ahead of the caller when the
        # run ends.  So the watchdog and every lane but the first start
        # idle, and the first lane starts on the ready roots.
        watchdog_thread = None
        if any(t is not None for t in (engine.task_timeout, engine.stall_timeout, engine.deadline)):
            watchdog_thread = threading.Thread(
                target=self.watchdog, name="repro-watchdog", daemon=True
            )
            watchdog_thread.start()
        for th in self.threads[1:]:
            th.start()
        with self.work_available:
            for task in roots:
                self.ready.push(task)
        self.threads[0].start()
        # The caller wakes when the first run thread leaves, not when
        # every one has exited: a finished run has nothing in flight,
        # and its threads only return.  A failing run's threads are
        # waited for, so none still writes a block when the failure is
        # raised.
        while not self.over.wait(_POLL_S):
            if self.stop.is_set() or not any(th.is_alive() for th in self.threads):
                break
        with self.work_available:  # idle workers, left waiting so as not to race the caller
            self.work_available.notify_all()
        if self.errors or not bk.finished:
            for th in self.threads:
                # A stuck worker cannot be killed; once the watchdog
                # fires we stop waiting and abandon the daemon thread.
                while th.is_alive() and not self.stop.is_set():
                    th.join(_POLL_S)
        if watchdog_thread is not None:
            self.stop.set()  # it returns on its own; nothing waits for it
        if not self.errors and not bk.finished:  # a worker thread died of a bug
            self.errors.append(
                _failure("worker_death", "a worker thread ended with tasks outstanding")
            )
        if self.errors:
            exc = self.errors[0]
            if isinstance(exc, RuntimeFailure) and exc.trace is None:
                with self.lock:  # an abandoned worker may still be appending
                    exc.trace = Trace(list(self.records), engine.n_workers, list(self.events))
            raise exc
        stats = {**bk.stats(), **self.stats}
        return Trace(self.records, engine.n_workers, self.events, stats=stats)

    # ------------------------------------------------------------------
    # The lifecycle both execution paths share
    # ------------------------------------------------------------------
    def record_event(self, ev: ResilienceEvent) -> None:
        with self.lock:
            self.events.append(ev)

    def _claim(self, core: int, task: Task):
        """Claim *task*, just popped from the ready queue (lock held), for
        *core*: ``(task, remote)`` with the syncs it owes, one per
        predecessor that ran on another core."""
        # Predecessor placement is read under the lock: ran_on is
        # written by completing workers, so an unlocked read would race
        # (and miscount syncs).
        ran_on, remote = self.ran_on, 0
        for p in self.graph.preds[task.tid]:
            if ran_on.get(p, core) != core:
                remote += 1
        self.running[task.tid] = (task, time.monotonic(), core, 1)
        return task, remote

    def _count_remote(self, task: Task, remote: int) -> None:
        """Account inter-worker synchronization (outside the lock): the
        syncs :meth:`_claim` found and the task's input volume."""
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
            # A FloatingPointError is a task body's numerical verdict
            # (a non-finite panel at its finalize): a health failure.
            kind = (
                "injected" if isinstance(exc, InjectedFault)
                else "health" if isinstance(exc, FloatingPointError)
                else "task_error"
            )
            exc = _failure(
                kind,
                f"task {task.name!r} failed after {attempt + 1} attempt(s): {exc}",
                task,
                exc,
            )
        self._abort(task, exc)
        return False

    def _run_inline(self, task: Task, attempt: int = 0, work=None):
        """Run *work* (default: *task*'s closure) in this thread, under
        the fault plan and the retry policy; its ``(start, end)`` span,
        or None once the failure has ended the run."""
        plan, t0, clock = self.plan, self.t0, time.perf_counter
        work = task.fn if work is None else work
        while True:
            start = clock() - t0
            try:
                if plan is not None:
                    plan.pre_task(task, attempt, record=self.record_event)
                if work is not None:
                    work()
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
        failed = _health_guard(task, self.record_event)
        with self.work_available:
            self.running.pop(task.tid, None)
            self.progress[0] = time.monotonic()
            self.ran_on[task.tid] = core
            self.records.append(TaskRecord(task.tid, task.name, task.kind, core, start, end))
            if failed is not None:
                self.errors.append(failed)
                self.bk.remaining -= 1
                self.work_available.notify_all()
            else:
                for released in self.bk.complete(task.tid):
                    self.ready.push(released)
        return failed is None

    # ------------------------------------------------------------------
    # Threads: one worker per core
    # ------------------------------------------------------------------
    def worker(self, core: int) -> None:
        bk, ready, errors = self.bk, self.ready, self.errors
        try:
            while True:
                with self.work_available:
                    while not ready and not bk.finished and not errors:
                        # Timed wait + re-check: a missed notify (however
                        # unlikely) then costs one poll period, never a
                        # hung worker that only the watchdog could reap.
                        self.work_available.wait(0.1)
                    if bk.finished or errors:
                        return
                    task, remote = self._claim(core, ready.pop())
                    if ready:  # one waiting lane per task left; none once all are out
                        self.work_available.notify()
                if remote:
                    self._count_remote(task, remote)
                span = self._run_inline(task)
                if span is None or not self._finish(task, core, *span):
                    return
        finally:
            self.over.set()  # the first lane to leave wakes the caller

    # ------------------------------------------------------------------
    # Processes: one dispatcher, the pool's processes and its own lane
    # ------------------------------------------------------------------
    def dispatcher(self) -> None:
        """Feed the worker pool from one loop that is itself a lane.

        A run of W >= 2 lanes deals to W - 1 worker processes (lanes
        0..W-2) and runs lane W - 1 in this thread.  Each pass first
        claims the highest-priority ready task for its own lane — when
        it can take the pool's parent-lane token, so engines sharing a
        pool never run two such tasks at once — then deals the rest to
        the least-loaded process (at most :data:`_MAX_INFLIGHT` in
        flight each), sends what one process was dealt as one message,
        runs its own tasks inline and polls the pipes without blocking.
        While it holds the token, a task under :data:`_SHIP_MIN_FLOPS`
        is not dealt but claimed for its own lane in the same pass: its
        round trip would cost this thread more than it takes off the
        lane.  The critical chain (merge, finalize, the next column's
        updates, the next leaf) thus pays no pipe round-trip while it
        stays on this lane.  When there is nothing of its own to run it
        sleeps in one ``poll`` over the pipes with messages out, then
        takes each reply apart into per-task acks (:meth:`_absorb`).

        Tasks without a descriptor always run inline, on lane W - 1.
        With one process (W = 1) there is no lane of the dispatcher's:
        such a task runs on lane 0, only while the process has nothing
        in flight, so a lane's spans never overlap.
        Once the run is failing nothing new is dealt but messages
        already out are still collected — their tasks ran, so they are
        recorded; only the watchdog's ``stop`` abandons them.
        """
        # Imported here: ops imports the kernels, which import counters,
        # which imports this package.
        from repro.runtime.ops import run_op

        pool, plan = self.pool, self.plan
        pool.bind_dispatcher()
        bk, queue, load, redo = self.bk, self.ready, self.load, self.redo
        lane = self.engine.n_workers - 1  # this thread's core
        shared = lane < len(load)  # W == 1: the lane is the process's too
        out: dict[int, tuple] = {}  # ticket -> (core, [(task, attempt)], sent at)
        poller = select.poll()
        watched: dict[int, int] = {}  # fd -> core, pipes with a message of ours out
        wake_r, wake_w = os.pipe()  # written by a sharing engine that drained our reply
        os.set_blocking(wake_w, False)
        poller.register(wake_r, select.POLLIN)
        messages, dispatch_s = 0, 0.0
        token = False  # holding the pool's parent-lane token

        def wake() -> None:
            try:
                os.write(wake_w, b"\0")
            except BlockingIOError:  # pipe full: a wake is pending already
                pass

        try:
            while not self.stop.is_set():
                dealt: list[tuple] = []  # (core, task, attempt, remote) for the processes
                mine: list[tuple] = []  # (task, remote) for this thread's lane
                with self.work_available:
                    if not self.errors:
                        if bk.finished:
                            break
                        if not shared and queue and pool.take_lane():
                            token = True
                            mine.append(self._claim(lane, queue.pop()))
                        while (redo or queue) and min(load) < _MAX_INFLIGHT:
                            core = load.index(min(load))
                            if redo:
                                task, attempt = redo.popleft()
                                dealt.append((core, task, attempt, 0))
                            else:
                                task = queue.pop()
                                if not (task.meta and task.meta.get("op")):
                                    if shared and load[0]:
                                        queue.push(task)  # its lane is busy
                                        break
                                    mine.append(self._claim(lane, task))
                                    if shared:
                                        break
                                    continue
                                if token and task.cost.flops < _SHIP_MIN_FLOPS:
                                    mine.append(self._claim(lane, task))
                                    continue
                                task, remote = self._claim(core, task)
                                dealt.append((core, task, 0, remote))
                            load[core] += 1
                        # A process acks a whole message at once and
                        # serves its messages in order, so a task's ack
                        # may wait for everything now in flight there,
                        # and is collected after this pass's own tasks:
                        # it is allowed one task_timeout for each.  A
                        # task of this lane waits for the ones before it.
                        now = time.monotonic()
                        for core, task, _, _ in dealt:
                            self.running[task.tid] = (task, now, core, load[core] + len(mine))
                        for i, (task, _) in enumerate(mine):
                            self.running[task.tid] = (task, now, lane, i + 1)
                    if not dealt and not mine and not out:
                        if self.errors:
                            break
                        # Nothing ready, nothing out: not a state a valid
                        # DAG reaches; idle until the watchdog rules.
                        self.work_available.wait(0.1)
                        continue
                batches: dict[int, list] = {}
                for task, remote in mine:
                    if remote:
                        self._count_remote(task, remote)
                for core, task, attempt, remote in dealt:
                    if remote:
                        self._count_remote(task, remote)
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
                for task, _ in mine:
                    with self.lock:  # it starts now, in this thread: one task_timeout
                        self.running[task.tid] = (task, time.monotonic(), lane, 1)
                    op = task.meta.get("op") if task.meta else None
                    span = self._run_inline(task, 0, partial(run_op, op) if op else None)
                    if span is not None:
                        self._finish(task, lane, *span)
                if token:
                    pool.give_lane()
                    token = False
                if not out:
                    continue
                # Wait for a reply -- unless this pass left something to
                # deal: inline tasks release successors, a retry is due.
                busy = mine or (redo and min(load) < _MAX_INFLIGHT)
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
            if token:
                pool.give_lane()
            for ticket, (core, _, _) in out.items():
                pool.abandon(core, ticket)
            os.close(wake_r)
            os.close(wake_w)
            self.stats = {"messages": messages, "dispatch_seconds": dispatch_s}
            self.over.set()

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
                n = len(bk.graph.tasks)
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
                if bk.remaining > 0 and not running and not self.ready:
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
        exc = _failure(kind, message, task)
        self.events.append(
            ResilienceEvent(kind, exc.task, exc.tid, detail=detail, value=value, fatal=True)
        )
        self.errors.append(exc)
        self.stop.set()
        self.work_available.notify_all()
