"""Task-level recovery: retry policies and structured runtime failures.

The paper's runtime keeps the panel off the critical path by *always*
having work ready; this module keeps the runtime itself off the failure
path.  A :class:`RetryPolicy` re-runs failed tasks when that is safe
(idempotent tasks, or injected faults that fired before any work was
done) with exponential backoff.  When recovery is impossible the
executors raise a :class:`RuntimeFailure` — a structured exception that
names the offending task and carries the partial
:class:`~repro.runtime.trace.Trace` (with every resilience event), so a
caller can diagnose *what completed* instead of staring at a bare
kernel traceback.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.resilience.faults import InjectedFault

__all__ = ["RetryPolicy", "RuntimeFailure"]

#: Failure classes a :class:`RuntimeFailure` distinguishes.
FAILURE_KINDS = (
    "task_error",  # a task raised and retries were exhausted / not allowed
    "injected",  # an injected fault exhausted retries
    "timeout",  # watchdog: one task exceeded the per-task timeout
    "stall",  # watchdog: no progress for longer than stall_timeout
    "deadlock",  # watchdog: tasks remain but nothing is ready or running
    "worker_death",  # watchdog: a worker thread died with work in flight
    "health",  # a numerical health guard found corrupted results
    "deadline",  # the run's absolute deadline passed before completion
    "admission",  # the service shed the request before it ran
)


class RuntimeFailure(RuntimeError):
    """A structured runtime failure.

    Attributes
    ----------
    task, tid:
        The offending task's name and id (``""`` / ``-1`` for
        runtime-level failures such as deadlocks).
    failure_kind:
        One of :data:`FAILURE_KINDS`.
    trace:
        The partial :class:`~repro.runtime.trace.Trace` of everything
        that completed before the failure, including resilience events
        (retries, injected faults, recomputations).  May be None when the
        failure happened outside an executor run.
    """

    def __init__(
        self,
        message: str,
        *,
        task: str = "",
        tid: int = -1,
        failure_kind: str = "task_error",
        trace=None,
    ) -> None:
        super().__init__(message)
        self.task = task
        self.tid = tid
        self.failure_kind = failure_kind
        self.trace = trace

    def __reduce__(self):
        # The keyword-only constructor breaks the default exception
        # pickling (which replays ``cls(*self.args)`` and drops the
        # attributes); rebuild from the message and restore the rest as
        # state so the failure survives pickle/multiprocessing intact.
        message = self.args[0] if self.args else ""
        return (self.__class__, (message,), self.__dict__.copy())

    def __setstate__(self, state):
        self.__dict__.update(state)

    def summary(self) -> str:
        """One-line diagnosis including partial-progress statistics."""
        parts = [f"{self.failure_kind}: {self.args[0]}"]
        if self.task:
            parts.append(f"task={self.task!r} (tid {self.tid})")
        if self.trace is not None:
            parts.append(f"{len(self.trace.records)} tasks completed")
            counts = self.trace.resilience_summary()
            if counts:
                parts.append(", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        return "; ".join(parts)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for recoverable tasks.

    A failed attempt is retried only when it cannot have corrupted
    shared state: the task is declared ``idempotent`` (e.g. TSLU leaf
    tasks, which read the matrix and overwrite their own candidate
    slot), or the failure is an :class:`InjectedFault` that fired
    before the closure ran.  ``retry_all=True`` lifts the safety check
    for graphs known to be side-effect free (tests, symbolic runs).

    Parameters
    ----------
    max_retries:
        Attempts allowed *after* the first (0 disables retrying).
    backoff_s, backoff_multiplier:
        Sleep ``backoff_s * multiplier**attempt`` before re-running.
    max_backoff_s:
        Optional cap on the exponential schedule; ``None`` (the
        default) leaves it unbounded, matching the historical behavior.
    jitter:
        Fraction of the (capped) backoff added as *deterministic seeded
        jitter*: the sleep becomes ``d * (1 + jitter * u)`` with
        ``u in [0, 1)`` a pure hash of ``(seed, tid, attempt)``.  Jitter
        decorrelates retry storms — many tasks (or many service
        requests) failing together re-arrive spread out instead of in
        lockstep — while staying exactly reproducible run-to-run.
    seed:
        Root seed for the jitter hash.
    retry_all:
        Retry any task regardless of idempotence.
    """

    max_retries: int = 2
    backoff_s: float = 0.002
    backoff_multiplier: float = 2.0
    max_backoff_s: float | None = None
    jitter: float = 0.0
    seed: int = 0
    retry_all: bool = False

    def delay(self, attempt: int, tid: int = 0) -> float:
        """Backoff before retry number ``attempt + 1`` of task *tid*.

        Deterministic: the same ``(seed, tid, attempt)`` always yields
        the same delay, so retried schedules replay bit-for-bit.
        """
        d = self.backoff_s * self.backoff_multiplier ** attempt
        if self.max_backoff_s is not None:
            d = min(d, self.max_backoff_s)
        if self.jitter > 0.0 and d > 0.0:
            h = zlib.crc32(struct.pack("<qqq", int(self.seed), int(tid), int(attempt)))
            d *= 1.0 + self.jitter * (h / 2**32)
        return d

    def schedule(self, tid: int = 0) -> list[float]:
        """The full delay schedule ``[delay(0), ..., delay(max_retries-1)]``."""
        return [self.delay(a, tid) for a in range(self.max_retries)]

    def should_retry(self, task, exc: BaseException, attempt: int) -> bool:
        """Whether to re-run *task* after *exc* on attempt *attempt*."""
        if attempt >= self.max_retries:
            return False
        if self.retry_all:
            return True
        if isinstance(exc, InjectedFault) and exc.pre_execution:
            return True
        return bool(getattr(task, "idempotent", False))
