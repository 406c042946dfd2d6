"""Worker-pool supervision: respawn throttling.

The pool heals on demand — a dead worker is found and respawned by the
request that next writes to it or waits on it in vain
(``_WorkerPool._admit`` / ``ensure_alive``) — and
:class:`RespawnGovernor` is the sliding-window rate limit it consults
before each respawn.  A crash-looping workload (e.g. a kernel that
segfaults on every dispatch) would otherwise convert the pool into a
fork bomb: every task kills a worker, every death spawns a replacement,
and the machine spends its cycles in ``fork``/``exec`` instead of
factorizations.  With the governor, the pool takes at most
``max_respawns`` respawns per ``window_s``; beyond that workers stay
down and requests fail fast with a structured ``worker_death`` (noting
the throttle), which also feeds the circuit breaker exactly the storm
signal it is designed to catch.
"""

from __future__ import annotations

import time
from collections import deque

from repro.runtime.sync import make_lock

__all__ = ["RespawnGovernor"]


class RespawnGovernor:
    """Sliding-window respawn rate limit (thread-safe, injectable clock)."""

    def __init__(
        self,
        max_respawns: int = 8,
        window_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if max_respawns < 1:
            raise ValueError("max_respawns must be >= 1")
        self.max_respawns = max_respawns
        self.window_s = float(window_s)
        self._clock = clock
        self._lock = make_lock("service.respawn")
        self._grants: deque[float] = deque()
        self.granted = 0
        self.denied = 0

    def allow_respawn(self, core: int) -> bool:
        """Whether worker *core* may be respawned right now.

        Consumes one grant when allowed; denials are free (the caller
        retries on its next failure, by which time the window may have
        slid past older grants).
        """
        with self._lock:
            now = self._clock()
            while self._grants and now - self._grants[0] > self.window_s:
                self._grants.popleft()
            if len(self._grants) >= self.max_respawns:
                self.denied += 1
                return False
            self._grants.append(now)
            self.granted += 1
            return True

    def snapshot(self) -> dict:
        with self._lock:
            now = self._clock()
            while self._grants and now - self._grants[0] > self.window_s:
                self._grants.popleft()
            return {
                "window_grants": len(self._grants),
                "granted": self.granted,
                "denied": self.denied,
            }
