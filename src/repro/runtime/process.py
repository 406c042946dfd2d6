"""True-multicore execution: a persistent process pool over shared memory.

Python threads serialize kernel *dispatch* on the GIL even though NumPy
releases it inside array kernels; on many small tiles the dispatch path
dominates and the threaded backend cannot scale with physical cores.
:class:`ProcessExecutor` runs kernels in worker **processes** instead:

* the matrix and all panel workspace buffers live in a shared-memory
  arena (:mod:`repro.runtime.shm`) that every worker maps zero-copy;
* tasks cross the process boundary as compact *descriptors* — kernel
  name plus block coordinates and buffer specs (``meta["op"]``, which
  the CALU/CAQR/TSLU/TSQR builders publish when their ``store=`` is
  process-shared; see :mod:`repro.runtime.ops`) — never as pickled
  closures or matrix blocks;
* scheduling stays in the parent: the executor is the
  :class:`~repro.runtime.engine.ExecutionEngine`, whose single
  *dispatcher* deals ready tasks to the least-loaded worker, ships the
  descriptors dealt to one worker as **one message**
  (:meth:`_WorkerPool.submit`), waits on every worker pipe at once and
  gets back **one reply with one ack per task**
  (:meth:`_WorkerPool.collect`).  Each ack then goes through the same
  post-task lifecycle as a threaded task — fault injection, health
  guards (reading the very store buffers the worker wrote: pivots,
  degradation flags, Q factors), record, release — so resume skips,
  retry, streaming ``GraphProgram`` windows and the watchdog behave
  identically across the threaded and process backends.

Tasks without ``meta["op"]`` (checkpoint snapshots, ABFT checksum
hooks, row-swap epilogues, arbitrary test graphs, and every task of a
graph bound to the heap rather than an arena) run their ordinary
closure inline in the dispatcher — correct, just not parallel across
processes.  Worker death shows as a hang-up on the worker's pipe: the
worker is respawned and every task it had in flight surfaces a
structured :class:`~repro.resilience.recovery.RuntimeFailure` with
``failure_kind="worker_death"``, so an idempotent task is retried by the
usual :class:`~repro.resilience.recovery.RetryPolicy` machinery.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import select
import time

# Module-style import: counters itself imports repro.runtime.sync, so a
# from-import here would fail when counters is the first module loaded.
from repro import counters as _counters
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.engine import ExecutionEngine
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.sync import make_lock, note_roundtrip
from repro.runtime.threaded import ThreadedExecutor

__all__ = ["ProcessExecutor", "resolve_executor"]

_POLL_S = 0.05  # liveness re-check interval while awaiting a reply

#: Ack of an op the worker never started: an earlier op of the same
#: message failed, so the parent decides again (it re-deals the task).
_NOT_RUN = (None, None, 0.0, 0.0, None)


def _worker_main(conn) -> None:
    """Worker process loop: receive messages, run their ops, reply.

    A message is ``(ticket, ops, count)``: the descriptors dealt to this
    worker in one dispatcher pass.  The reply ``(ticket, acks)`` carries
    one ack ``(ok, err, start, end, tallies)`` per op, in order: *start*
    and *end* are this process's ``perf_counter`` around the op (the
    clock is CLOCK_MONOTONIC, shared with the parent), and *tallies* the
    op's flops, kernel calls and tile-store traffic — counted only when
    *count* says the parent has an active
    :class:`~repro.counters.Counters`, ``None`` otherwise.  The first
    failing op stops the message: the rest are acked :data:`_NOT_RUN`.
    """
    from repro.runtime.ops import run_op

    clock = time.perf_counter
    tallies = _counters.Counters()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        ticket, ops, count = msg
        acks = []
        for op in ops:
            if acks and acks[-1][0] is not True:
                acks.append(_NOT_RUN)
                continue
            err = None
            start = clock()
            try:
                if count:
                    with _counters.counting(tallies):
                        run_op(op)
                else:
                    run_op(op)
            except BaseException as exc:  # ship the failure to the parent
                err = exc
            end = clock()
            counted = None
            if count:
                counted = tallies.snapshot()
                counted["kernel_calls"] = dict(tallies.kernel_calls)
                tallies.reset()
            acks.append((err is None, err, start, end, counted))
        try:
            conn.send((ticket, acks))
        except Exception:  # an error that does not pickle: ship its description
            conn.send(
                (
                    ticket,
                    [
                        (ok, err and RuntimeError(f"{type(err).__name__}: {err!r}"), *rest)
                        for ok, err, *rest in acks
                    ],
                )
            )
    conn.close()


class _WorkerPool:
    """Persistent worker processes, one duplex pipe each.

    Workers start lazily on first use (so constructing an executor is
    free) and persist across runs — process spawn cost is paid once,
    matching the paper's persistent Pthreads pool.

    The unit of traffic is a **message**: :meth:`submit` writes a list
    of descriptors to worker *core* and returns a ticket;
    :meth:`collect` hands back that ticket's reply.  Several
    :class:`~repro.runtime.engine.ExecutionEngine` runs (a service
    multiplexing concurrent requests) can share one pool: a worker
    serves its messages in arrival order, the per-core lock covers one
    pipe write or one drain of the replies already waiting — never the
    wait for a worker — and whichever caller drains a pipe files each
    reply under its ticket and wakes the ticket's owner, so every engine
    gets its own acks.

    *respawn_governor* (optional; see
    :class:`~repro.service.supervisor.RespawnGovernor`) rate-limits
    worker respawns: a crash-looping workload cannot livelock the pool
    by burning every cycle on process spawns.  When the governor denies
    a respawn the worker stays down and the failure says so — the next
    message for that core re-asks the governor, so the denial is
    temporary by construction.
    """

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        respawn_governor=None,
    ) -> None:
        self.n_workers = n_workers
        if start_method is None:
            # fork shares the parent's module state (no re-import per
            # worker) and is the fast path on Linux; fall back to the
            # platform default elsewhere.
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: list = [None] * n_workers
        self._conns: list = [None] * n_workers
        self._pollers: list = [None] * n_workers  # one persistent poll per pipe
        self._locks = [make_lock("process.core") for _ in range(n_workers)]
        self._tickets = itertools.count(1)
        # Per core, under its lock: messages awaiting a reply
        # ``ticket -> (ops, wake)`` and replies awaiting their owner
        # ``ticket -> acks | RuntimeFailure``.
        self._pending: list[dict] = [{} for _ in range(n_workers)]
        self._replies: list[dict] = [{} for _ in range(n_workers)]
        self._closed = False
        self.respawn_governor = respawn_governor
        self.respawns = 0  # lifetime respawn count (post-death restarts)
        self.deaths = 0  # lifetime worker deaths observed

    def _ensure(self, core: int) -> None:
        proc = self._procs[core]
        if proc is not None and proc.is_alive():
            return
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-proc-{core}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[core] = proc
        self._conns[core] = parent_conn
        self._pollers[core] = select.poll()
        self._pollers[core].register(parent_conn.fileno(), select.POLLIN)

    def _admit(self, core: int) -> None:
        """Make worker *core* runnable, honouring the respawn throttle.

        A worker left dead by a throttled respawn must not be silently
        revived by the next request — that would reduce the crash-loop
        guard to a one-request delay.  Spawned-but-dead workers re-ask
        the governor; denial fails fast with the same structured
        ``worker_death`` the original death raised.
        """
        proc = self._procs[core]
        if proc is None:
            self._ensure(core)
        elif not proc.is_alive() and not self._bury(core):
            raise RuntimeFailure(
                f"worker process {core} is down and its respawn throttled"
                " (crash-loop guard)",
                failure_kind="worker_death",
            )

    def _bury(self, core: int, cause: BaseException | None = None) -> bool:
        """Worker *core* is dead (core lock held): fail what it had in flight, respawn.

        Every message awaiting its reply gets a structured
        ``worker_death`` in its place and its owner is woken.  The
        worker is respawned so the pool stays whole — unless the
        governor says the pool is crash-looping, in which case the dead
        process object stays in place for :meth:`_admit` to re-ask
        about.  Returns whether the worker is back.
        """
        proc = self._procs[core]
        proc.join(timeout=1.0)  # the hang-up precedes the exit status by a moment
        exitcode = proc.exitcode
        conn = self._conns[core]
        if conn is not None:  # first sight of this death
            self.deaths += 1
            conn.close()
            self._conns[core] = self._pollers[core] = None
        governor = self.respawn_governor
        throttled = governor is not None and not governor.allow_respawn(core)
        for ticket, (ops, wake) in self._pending[core].items():
            failure = RuntimeFailure(
                f"worker process {core} died running {_op_names(ops)}"
                f" (exitcode={exitcode})"
                + ("; respawn throttled (crash-loop guard)" if throttled else ""),
                failure_kind="worker_death",
            )
            failure.__cause__ = cause
            self._replies[core][ticket] = failure
            if wake is not None:
                wake()
        self._pending[core].clear()
        if throttled:
            return False
        self._reap(core)
        self._ensure(core)
        self.respawns += 1
        return True

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def submit(self, core: int, ops: list, wake=None) -> int:
        """Send *ops* to worker *core* as one message; returns its ticket.

        One pipe write per message — a dispatcher pass ships everything
        it dealt to this worker here, one descriptor per task.  *wake*
        (optional, must not block) is
        called when the reply has been filed by **another** caller's
        drain, so an owner waiting on file descriptors learns of it.
        Raises ``worker_death`` when the worker is down and throttled,
        or dies under the write.
        """
        if self._closed:
            raise ValueError("worker pool is closed")
        note_roundtrip()
        _counters.add_roundtrip()
        count = _counters.current_counters() is not None
        ticket = next(self._tickets)
        with self._locks[core]:
            self._admit(core)
            self._pending[core][ticket] = (ops, wake)
            try:
                self._conns[core].send((ticket, ops, count))
            except OSError as exc:  # died since the liveness check
                self._bury(core, exc)
                raise self._replies[core].pop(ticket) from exc
        return ticket

    def collect(self, core: int, ticket: int, block: bool = True):
        """The acks of message *ticket*, one ``(ok, err, start, end, tallies)`` per op.

        With ``block=False`` returns ``None`` when the reply has not
        arrived.  Raises the structured ``worker_death`` if the worker
        died with the message in flight.  Tallies are folded into the
        caller's active :class:`~repro.counters.Counters`, so counting
        stays backend-agnostic.
        """
        while True:
            with self._locks[core]:
                pending, replies = self._pending[core], self._replies[core]
                conn = self._conns[core]
                me = pending.get(ticket, (None, None))[1]  # this caller's wake
                try:
                    # File every reply already waiting in the pipe, ours
                    # or not; owners other than this caller are woken.
                    while conn is not None and self._pollers[core].poll(0):
                        t, acks = conn.recv()
                        entry = pending.pop(t, None)
                        if entry is None:
                            continue  # abandoned by its run
                        replies[t] = acks
                        if entry[1] is not None and entry[1] is not me:
                            entry[1]()
                except (EOFError, OSError) as exc:
                    # The worker died (OOM kill, segfault, kill -9): its
                    # end of the pipe hung up.
                    self._bury(core, exc)
                reply = replies.pop(ticket, None)
                if reply is None and ticket not in pending:
                    raise KeyError(f"no message {ticket} in flight on worker {core}")
            if reply is not None or not block:
                break
            try:
                idle = not conn.poll(_POLL_S)
            except OSError:  # closed under us by another caller's _bury
                continue
            if idle:
                self.ensure_alive(core)
        if isinstance(reply, BaseException):
            raise reply
        active = _counters.current_counters()
        if reply is not None and active is not None:
            for ack in reply:
                if ack[4]:
                    active.merge(ack[4])
        return reply

    def abandon(self, core: int, ticket: int) -> None:
        """Forget message *ticket*: its reply, when it comes, is dropped."""
        with self._locks[core]:
            self._pending[core].pop(ticket, None)
            self._replies[core].pop(ticket, None)

    def run(self, core: int, op: tuple) -> None:
        """Execute one descriptor on worker *core*; raises its error."""
        ok, err, *_ = self.collect(core, self.submit(core, [op]))[0]
        if not ok:
            raise err

    def fileno(self, core: int) -> int | None:
        """File descriptor of worker *core*'s pipe (``None`` while down)."""
        conn = self._conns[core]
        return None if conn is None else conn.fileno()

    # ------------------------------------------------------------------
    # Liveness and on-demand healing
    # ------------------------------------------------------------------
    def worker_alive(self, core: int) -> bool | None:
        """Liveness of worker *core*: ``None`` = never spawned (lazy)."""
        proc = self._procs[core]
        return None if proc is None else proc.is_alive()

    def liveness(self) -> list:
        """Per-core liveness snapshot (see :meth:`worker_alive`)."""
        return [self.worker_alive(c) for c in range(self.n_workers)]

    def ensure_alive(self, core: int) -> bool:
        """Respawn a *spawned-but-dead* worker.

        Called by whoever waited a poll period on worker *core* in vain
        (the dispatcher, a blocking :meth:`collect`); a worker killed
        while idle is respawned by the next message's :meth:`_admit`.
        Messages the dead worker had in flight fail with
        ``worker_death``.  Respects
        the respawn governor; returns True when a respawn happened.
        Never spawns a worker that was not yet started (lazy spawn
        stays lazy), and never waits for the core lock.
        """
        if self._closed:
            return False
        if not self._locks[core].acquire(blocking=False):
            return False  # mid-write or mid-drain; that caller recovers
        try:
            proc = self._procs[core]
            if proc is None or proc.is_alive():
                return False
            return self._bury(core)
        finally:
            self._locks[core].release()

    def _reap(self, core: int) -> None:
        conn = self._conns[core]
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        proc = self._procs[core]
        if proc is not None:
            try:
                proc.terminate()
                proc.join(timeout=1.0)
            except Exception:
                pass
        self._procs[core] = None
        self._conns[core] = self._pollers[core] = None

    @property
    def started(self) -> bool:
        return any(p is not None for p in self._procs)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for core, conn in enumerate(self._conns):
            proc = self._procs[core]
            if conn is not None and proc is not None and proc.is_alive():
                try:
                    conn.send(None)
                except Exception:
                    pass
        for core in range(self.n_workers):
            proc = self._procs[core]
            if proc is not None:
                proc.join(timeout=2.0)
            self._reap(core)


def _op_names(ops: list) -> str:
    names = [op[0] for op in ops]
    return f"op {names[0]!r}" if len(names) == 1 else f"ops {names}"


class ProcessExecutor(ExecutionEngine):
    """The engine over a pool of worker *processes* it owns.

    Drop-in alongside :class:`~repro.runtime.threaded.ThreadedExecutor`
    (same options, same ``run(source, journal=)``, same
    structured-failure semantics) but with kernels dispatched to real
    OS processes over a shared-memory tile plane, so the factorization
    scales with physical cores instead of GIL time slices.

    Tasks carrying ``meta["op"]`` descriptors run in workers; tasks
    without one run inline in the parent-side dispatcher.  The pool is
    made at first use and persists across runs; call :meth:`close` (or
    use the executor as a context manager) when done.

    Parameters are the positional ``n_workers``, ``policy`` and keyword
    *options* of :class:`~repro.runtime.engine.ExecutionEngine` (less
    ``process_pool``: the pool is this executor's own), plus:

    start_method:
        ``multiprocessing`` start method (default: ``"fork"`` where
        available, else the platform default).
    respawn_governor:
        Optional rate limiter (an object with ``allow_respawn(core)``)
        consulted before respawning a dead worker, so a crash-looping
        workload cannot livelock the pool; see
        :class:`~repro.service.supervisor.RespawnGovernor`.
    """

    def __init__(self, *args, start_method: str | None = None, respawn_governor=None, **options):
        options.setdefault("thread_name", "repro-dispatch")
        super().__init__(*args, process_pool=None, **options)
        self.start_method = start_method
        self.respawn_governor = respawn_governor

    @property
    def pool(self) -> _WorkerPool:
        if self._pool is None or self._pool._closed:
            self._pool = _WorkerPool(
                self.n_workers, self.start_method, respawn_governor=self.respawn_governor
            )
        return self._pool

    def close(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> ProcessExecutor:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def default_process_workers() -> int:
    """Worker count for ``executor="process"``: the machine's cores, capped."""
    return max(1, min(os.cpu_count() or 1, 8))


def resolve_executor(executor, n_workers: int | None = None, *, hints: dict | None = None):
    """Resolve an ``executor=`` argument to ``(instance, owned)``.

    Accepts the strings ``"threaded"``, ``"stealing"``, ``"process"``
    and ``"auto"`` (returning a fresh instance the caller owns and
    should close) or any executor object (returned as-is,
    ``owned=False``).  Drivers use this so ``calu(A,
    executor="process")`` works without the caller managing pool
    lifetime.

    ``"auto"`` asks the machine-model autotuner
    (:func:`repro.machine.autotune.autotune`) to pick the backend;
    *hints* (``kind``/``m``/``n``/``b``/``tr``) sharpen the decision,
    and the chosen :class:`~repro.machine.autotune.DispatchDecision` is
    attached to the returned instance as ``autotune_decision`` so
    callers can audit the choice.
    """
    if not isinstance(executor, str):
        return executor, False
    if n_workers is None:
        n_workers = 4
    if executor == "auto":
        from repro.machine.autotune import autotune

        decision = autotune(**(hints or {}))
        # The worker count the decision was priced with, not the caller's.
        instance, owned = resolve_executor(decision.backend, decision.n_workers)
        instance.autotune_decision = decision
        return instance, owned
    if executor == "threaded":
        return ThreadedExecutor(n_workers), True
    if executor == "stealing":
        return WorkStealingExecutor(n_workers), True
    if executor == "process":
        return ProcessExecutor(n_workers), True
    raise ValueError(
        f"unknown executor {executor!r}; expected 'threaded', 'stealing', "
        "'process' or 'auto'"
    )
