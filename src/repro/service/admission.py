"""Bounded admission control with fast-fail load shedding.

A service that queues without bound converts overload into unbounded
latency — every request eventually "succeeds" long after its caller
stopped caring, and the backlog itself starves the requests that could
still meet their deadlines.  :class:`AdmissionQueue` bounds both the
number of *active* requests (engine runs actually executing) and the
number *queued* behind them; anything beyond that is shed immediately
with a structured :class:`AdmissionRejected` carrying the observed
depth and a retry-after hint derived from recent service times, so a
well-behaved client can back off intelligently instead of hammering.

Queued requests never outwait their deadline: the wait is bounded by
the request's deadline and by queue shutdown, surfacing as
:class:`DeadlineExceeded` / :class:`AdmissionRejected` — never a hang.
"""

from __future__ import annotations

import time

from repro.resilience.recovery import RuntimeFailure
from repro.runtime.sync import make_condition

__all__ = ["AdmissionQueue", "AdmissionRejected", "DeadlineExceeded"]


class AdmissionRejected(RuntimeFailure):
    """The service shed this request before running it.

    Attributes
    ----------
    queue_depth, active:
        Queue occupancy at rejection time.
    retry_after_s:
        Suggested client back-off (seconds): an estimate of when a slot
        should free up, derived from the recent mean service time.  0.0
        when the service is shutting down (retrying is pointless).
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int = 0,
        active: int = 0,
        retry_after_s: float = 0.0,
    ) -> None:
        super().__init__(message, failure_kind="admission")
        self.queue_depth = queue_depth
        self.active = active
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeFailure):
    """The request's deadline passed before it could complete.

    Raised whether the deadline passed while queued for admission or
    mid-run (the engine watchdog aborts the run with a ``deadline``
    failure the service converts).

    Attributes
    ----------
    deadline_s:
        The request's deadline budget in seconds.
    stage:
        Where the deadline hit: ``"queued"``, ``"run"`` or ``"post-run"``.
    """

    def __init__(self, message: str, *, deadline_s: float = 0.0, stage: str = "run") -> None:
        super().__init__(message, failure_kind="deadline")
        self.deadline_s = deadline_s
        self.stage = stage


class AdmissionQueue:
    """Bounded two-stage admission: ``max_active`` running, ``max_queue`` waiting.

    ``try_acquire`` either grants a slot, parks the caller in the
    bounded queue (woken FIFO-fairly as slots free), or sheds the
    request immediately when the queue is full.  All waits are bounded
    by the caller's deadline; :meth:`close` wakes every waiter with a
    rejection and :meth:`wait_idle` lets a drain block until in-flight
    work finishes.

    The retry-after hint is ``ema_service_s * (waiters + 1) / max_active``
    — the expected time until the head of the line would reach a slot,
    scaled to this caller's position.
    """

    def __init__(self, max_active: int = 2, max_queue: int = 8) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_active = max_active
        self.max_queue = max_queue
        self._cond = make_condition("service.admission")
        self._active = 0
        self._waiting = 0
        self._closed = False
        self._ema_service_s = 0.0  # exponential moving average, alpha=0.2
        # Counters (monotonic, read under the lock via snapshot()).
        self.admitted = 0
        self.shed = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _retry_after(self) -> float:
        base = self._ema_service_s if self._ema_service_s > 0.0 else 0.01
        return base * (self._waiting + 1) / self.max_active

    def try_acquire(self, deadline: float | None = None, deadline_s: float = 0.0) -> None:
        """Take an active slot, queueing (bounded) if none is free.

        *deadline* is an absolute ``time.monotonic()`` instant; a queued
        wait never outlives it.  Raises :class:`AdmissionRejected` (shed
        or shutting down) or :class:`DeadlineExceeded` (deadline passed
        while queued); returns normally once a slot is held.
        """
        with self._cond:
            if self._closed:
                self.shed += 1
                raise AdmissionRejected(
                    "service is shutting down",
                    queue_depth=self._waiting,
                    active=self._active,
                )
            if self._active < self.max_active and self._waiting == 0:
                self._active += 1
                self.admitted += 1
                return
            if self._waiting >= self.max_queue:
                self.shed += 1
                raise AdmissionRejected(
                    f"admission queue full ({self._waiting} queued, "
                    f"{self._active} active); retry after "
                    f"{self._retry_after():.3g}s",
                    queue_depth=self._waiting,
                    active=self._active,
                    retry_after_s=self._retry_after(),
                )
            self._waiting += 1
            try:
                while True:
                    if self._closed:
                        self.shed += 1
                        raise AdmissionRejected(
                            "service shut down while request was queued",
                            queue_depth=self._waiting - 1,
                            active=self._active,
                        )
                    if self._active < self.max_active:
                        self._active += 1
                        self.admitted += 1
                        return
                    timeout = None
                    if deadline is not None:
                        timeout = deadline - time.monotonic()
                        if timeout <= 0.0:
                            self.shed += 1
                            raise DeadlineExceeded(
                                f"deadline ({deadline_s:.3g}s) passed while "
                                "queued for admission",
                                deadline_s=deadline_s,
                                stage="queued",
                            )
                    self._cond.wait(timeout)
            finally:
                self._waiting -= 1

    def release(self, service_s: float | None = None) -> None:
        """Return an active slot; *service_s* feeds the retry-after EMA."""
        with self._cond:
            self._active -= 1
            self.completed += 1
            if service_s is not None:
                if self._ema_service_s == 0.0:
                    self._ema_service_s = float(service_s)
                else:
                    self._ema_service_s += 0.2 * (float(service_s) - self._ema_service_s)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting; every queued waiter wakes with a rejection."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is active; True if idle was reached."""
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._active > 0:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    return False
                self._cond.wait(remaining)
            return True

    def snapshot(self) -> dict:
        """Occupancy and lifetime counters (for stats and tests)."""
        with self._cond:
            return {
                "active": self._active,
                "queued": self._waiting,
                "admitted": self.admitted,
                "shed": self.shed,
                "completed": self.completed,
                "closed": self._closed,
                "ema_service_s": self._ema_service_s,
            }
