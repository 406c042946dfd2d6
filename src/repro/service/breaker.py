"""Circuit breaker: stop feeding a failing worker pool.

When the process backend starts failing *as infrastructure* — workers
dying, watchdog timeouts, stalls — retrying every request against it
multiplies the damage: each attempt burns a respawn, holds an admission
slot for a full timeout, and delays the verdict the caller could have
had immediately.  The :class:`CircuitBreaker` watches for such storms
and, once tripped, routes requests to the *degraded* path (the threaded
backend, which shares no worker processes) while periodically letting a
single probe request test the primary again.

States (the classic three):

* **closed** — healthy; every request uses the primary backend.
* **open** — tripped; requests degrade.  After ``open_s`` of cool-down
  the next request is let through as a probe.
* **half-open** — one probe in flight; everyone else still degrades.
  A successful probe (``probe_successes`` of them) re-closes the
  breaker; a failed probe re-opens it and restarts the cool-down.

Only *infrastructure* failure kinds trip the breaker
(:data:`TRIP_KINDS`).  A ``task_error`` or ``health`` failure is the
request's own problem — a singular matrix does not mean the pool is
sick — and neither do failures observed on the degraded path (the
primary was not involved).
"""

from __future__ import annotations

import time
from collections import deque

from repro.runtime.sync import make_lock

__all__ = ["CircuitBreaker", "TRIP_KINDS"]

#: Failure kinds that indicate sick infrastructure rather than a bad
#: request: these (and only these) count toward tripping the breaker.
TRIP_KINDS = frozenset({"worker_death", "timeout", "stall", "deadlock", "deadline"})


class CircuitBreaker:
    """Sliding-window circuit breaker with an injectable clock.

    Parameters
    ----------
    failure_threshold:
        Infra failures within *window_s* that trip the breaker.
    window_s:
        Length of the sliding failure window.
    open_s:
        Cool-down after tripping before a probe is allowed.
    probe_successes:
        Consecutive successful probes required to re-close.
    clock:
        Monotonic time source (injectable so tests need not sleep).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        window_s: float = 30.0,
        open_s: float = 1.0,
        probe_successes: int = 1,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")
        self.failure_threshold = failure_threshold
        self.window_s = float(window_s)
        self.open_s = float(open_s)
        self.probe_successes = probe_successes
        self._clock = clock
        self._lock = make_lock("service.breaker")
        self._state = "closed"
        self._failures: deque[float] = deque()  # infra-failure timestamps
        self._opened_at = 0.0
        self._probing = False
        self._probe_ok = 0
        #: ``(time, from_state, to_state, reason)`` history, for tests
        #: and post-mortems.
        self.transitions: list[tuple[float, str, str, str]] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, to: str, reason: str) -> None:
        self.transitions.append((self._clock(), self._state, to, reason))
        self._state = to

    def _prune(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window_s:
            self._failures.popleft()

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def acquire(self) -> str:
        """Route one request: ``"primary"``, ``"degraded"`` or ``"probe"``.

        Every acquire **must** be paired with a :meth:`record` call with
        the same mode (the half-open probe slot is reserved until its
        verdict arrives).
        """
        with self._lock:
            now = self._clock()
            if self._state == "closed":
                return "primary"
            if self._state == "open" and now - self._opened_at >= self.open_s:
                self._transition("half_open", "cool-down elapsed, probing")
                self._probing = False
                self._probe_ok = 0
            if self._state == "half_open" and not self._probing:
                self._probing = True
                return "probe"
            return "degraded"

    def record(self, mode: str, ok: bool, kind: str | None = None) -> None:
        """Report the outcome of a request routed by :meth:`acquire`.

        *kind* is the :class:`~repro.resilience.recovery.RuntimeFailure`
        failure kind when ``ok`` is False; only :data:`TRIP_KINDS`
        influence the breaker.
        """
        with self._lock:
            now = self._clock()
            if mode == "degraded":
                return  # the primary was not exercised; no signal
            infra_failure = (not ok) and kind in TRIP_KINDS
            if mode == "probe":
                self._probing = False
                if self._state != "half_open":
                    return  # stale probe verdict after another transition
                if infra_failure:
                    self._transition("open", f"probe failed ({kind})")
                    self._opened_at = now
                    self._probe_ok = 0
                elif ok:
                    self._probe_ok += 1
                    if self._probe_ok >= self.probe_successes:
                        self._transition("closed", "probe(s) succeeded")
                        self._failures.clear()
                # A probe failing with a *request-level* error (bad
                # matrix) says nothing about the pool: stay half-open
                # and let the next request probe again.
                return
            # mode == "primary"
            if not infra_failure:
                return
            self._failures.append(now)
            self._prune(now)
            if self._state == "closed" and len(self._failures) >= self.failure_threshold:
                self._transition(
                    "open",
                    f"{len(self._failures)} infra failures within {self.window_s:.3g}s",
                )
                self._opened_at = now

    def snapshot(self) -> dict:
        with self._lock:
            now = self._clock()
            self._prune(now)
            return {
                "state": self._state,
                "recent_failures": len(self._failures),
                "transitions": len(self.transitions),
            }
