"""Named, ranked synchronization primitives with an opt-in lock witness.

Every lock and condition variable in the runtime, service and
resilience layers is created through this module's factories instead of
bare ``threading`` constructors::

    self._lock = make_lock("service.breaker")
    self._cond = make_condition("service.admission")

Two things fall out of that one convention:

* **Lock order by construction.**  Every name has a rank in
  :data:`LOCK_ORDER`, and a factory given a name outside that table
  raises ``ValueError``.  A thread may acquire a lock only while every
  lock it already holds ranks strictly lower.  Acquisitions that obey
  that rule cannot form a cycle, so they cannot deadlock, and a lock
  can never be taken twice by one thread.

* **Dynamic witnessing.**  By default the factories return plain
  ``threading`` primitives (zero overhead — the hot path is exactly the
  stdlib's).  Under *sanitize mode* — :func:`witnessing` as a context
  manager, or the ``REPRO_LOCK_SANITIZE=1`` environment variable, which
  the test suite sets for every test — they return
  :class:`TrackedLock` / :class:`TrackedCondition` wrappers that check
  the rank rule on every acquire and record, into the active
  :class:`LockWitness`:

  - every **rank violation**, which is then raised as
    :class:`LockOrderError` in the acquiring thread;
  - the **actual acquisition-order edges** (lock *A* held while *B* is
    acquired);
  - per-lock **hold times** (max and total), so tests can assert no
    lock is held anywhere near a watchdog threshold;
  - locks held across **process-pool round-trips**
    (:func:`note_roundtrip`, called by the worker pool before each
    pipe write).

The witness's own bookkeeping uses a raw ``threading.Lock`` — it is
the one deliberate exception to the "everything through the factories"
rule, because tracking the tracker would recurse.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "LOCK_ORDER",
    "LockOrderError",
    "LockWitness",
    "RANKS",
    "TrackedCondition",
    "TrackedLock",
    "active_witness",
    "make_condition",
    "make_lock",
    "note_roundtrip",
    "witnessing",
]

#: Every lock name, in the order one thread may nest them: while holding
#: a lock, a thread may only acquire one listed after it.  The one
#: nesting the code does is ``process.core -> service.respawn`` (a dead
#: worker is respawned under its core lock, through the governor).
LOCK_ORDER = (
    "driver.plans",
    "service.admission",
    "service.breaker",
    "engine.state",
    "process.core",
    "service.respawn",
    "resilience.faults",
    "checkpoint.memory",
    "checkpoint.file",
    "counters.active",
    "counters.counters",
)

#: ``{name: rank}`` for :data:`LOCK_ORDER`.
RANKS = {name: rank for rank, name in enumerate(LOCK_ORDER)}


class LockOrderError(RuntimeError):
    """A thread acquired a lock while holding one of equal or higher rank."""


def _rank(name: str) -> int:
    try:
        return RANKS[name]
    except KeyError:
        raise ValueError(
            f"lock name {name!r} has no rank: add it to repro.runtime.sync.LOCK_ORDER"
        ) from None


# The locks each thread holds, innermost last, across every witness.
_held = threading.local()


def _stack() -> list[str]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


class LockWitness:
    """Recorder for actual lock behaviour during a sanitized run.

    Attributes
    ----------
    violations:
        Rank violations, one message each, in the order they happened.
    edges:
        ``{(held_name, acquired_name): count}`` — every ordered pair
        observed when a thread acquired one lock while holding another.
    acquired:
        ``{name: count}`` — total successful acquisitions per lock.
    hold_max_s, hold_total_s:
        Per-lock hold-time statistics (seconds).
    roundtrip_held:
        ``{name}`` — locks that were held by the calling thread at a
        process-pool round-trip marker (see :func:`note_roundtrip`).
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()  # raw on purpose: never tracked
        self.violations: list[str] = []
        self.edges: dict[tuple[str, str], int] = {}
        self.acquired: dict[str, int] = {}
        self.hold_max_s: dict[str, float] = {}
        self.hold_total_s: dict[str, float] = {}
        self.roundtrip_held: set[str] = set()

    # -- events reported by the tracked primitives ---------------------
    def check(self, name: str) -> None:
        """Record and raise a violation unless *name* outranks every held lock."""
        rank = RANKS[name]
        above = [held for held in _stack() if RANKS[held] >= rank]
        if above:
            msg = (
                f"lock order: {name!r} (rank {rank}) acquired while holding "
                + ", ".join(f"{held!r} (rank {RANKS[held]})" for held in above)
            )
            with self._mu:
                self.violations.append(msg)
            raise LockOrderError(msg)

    def on_acquired(self, name: str) -> None:
        stack = _stack()
        with self._mu:
            self.acquired[name] = self.acquired.get(name, 0) + 1
            for held in stack:
                key = (held, name)
                self.edges[key] = self.edges.get(key, 0) + 1
        stack.append(name)

    def on_released(self, name: str, held_s: float) -> None:
        stack = _stack()
        # Release order may not be LIFO (rare but legal): remove the
        # innermost matching entry.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break
        with self._mu:
            self.hold_max_s[name] = max(self.hold_max_s.get(name, 0.0), held_s)
            self.hold_total_s[name] = self.hold_total_s.get(name, 0.0) + held_s

    def on_roundtrip(self) -> None:
        stack = _stack()
        if stack:
            with self._mu:
                self.roundtrip_held.update(stack)

    # -- summaries ------------------------------------------------------
    def edge_names(self) -> set[tuple[str, str]]:
        with self._mu:
            return set(self.edges)

    def snapshot(self) -> dict:
        with self._mu:
            return {
                "locks": sorted(self.acquired),
                "acquisitions": dict(self.acquired),
                "edges": {f"{a} -> {b}": n for (a, b), n in sorted(self.edges.items())},
                "hold_max_s": dict(self.hold_max_s),
                "roundtrip_held": sorted(self.roundtrip_held),
            }


class TrackedLock:
    """A ``threading.Lock`` that checks ranks and reports to a :class:`LockWitness`.

    Supports the full lock protocol (``acquire``/``release``, context
    manager, ``locked``) so it drops in anywhere the plain primitive
    was used, including as the underlying lock of a ``Condition``.
    """

    def __init__(self, name: str, witness: LockWitness) -> None:
        _rank(name)
        self.name = name
        self.witness = witness
        self._inner = threading.Lock()
        self._tls = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Checked before waiting: a thread re-taking a lock it holds
        # gets the error instead of blocking forever.
        self.witness.check(self.name)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self.witness.on_acquired(self.name)
            self._tls.t0 = time.monotonic()
        return ok

    def release(self) -> None:
        self._inner.release()
        self.witness.on_released(self.name, self._held_s())

    def _held_s(self) -> float:
        t0 = getattr(self._tls, "t0", None)
        return 0.0 if t0 is None else time.monotonic() - t0

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # Condition(lock=...) calls these when waiting: the mutex really is
    # released for the duration of the wait, so report it (ending the
    # current hold interval) and re-report the reacquisition.
    def _release_save(self) -> None:
        self.release()

    def _acquire_restore(self, state: None) -> None:
        try:
            self.witness.check(self.name)
        finally:  # the condition's caller expects the lock back either way
            self._inner.acquire()
            self.witness.on_acquired(self.name)
            self._tls.t0 = time.monotonic()

    def _is_owned(self) -> bool:
        return self._inner.locked()


class TrackedCondition(threading.Condition):
    """A ``threading.Condition`` over a :class:`TrackedLock`.

    The condition's wait/notify protocol is the stdlib's; only the
    underlying mutex is tracked, so ranks, edges and hold times
    attribute to the condition's lock name.  ``wait()`` correctly
    reports the lock released for the duration of the wait (via the
    tracked lock's ``_release_save``/``_acquire_restore`` hooks).
    """

    def __init__(self, name: str, witness: LockWitness, lock: TrackedLock | None = None) -> None:
        self.name = name
        if lock is None:
            lock = TrackedLock(name, witness)
        super().__init__(lock)


# ----------------------------------------------------------------------
# Sanitize-mode switch and factories
# ----------------------------------------------------------------------
_witness: LockWitness | None = None
_witness_mu = threading.Lock()  # raw on purpose: guards the switch itself


def active_witness() -> LockWitness | None:
    """The witness new primitives will report to, or ``None``."""
    return _witness


def _set_witness(w: LockWitness | None) -> LockWitness | None:
    """Install *w*; returns the witness it replaced."""
    global _witness
    with _witness_mu:
        prev, _witness = _witness, w
    return prev


class witnessing:
    """Context manager enabling sanitize mode for primitives created inside.

    >>> from repro.runtime import sync
    >>> with sync.witnessing() as w:
    ...     svc = build_service()   # every make_lock() is now tracked
    ...     run_load(svc)
    >>> sorted(w.edge_names())      # doctest: +SKIP

    Only primitives *created* while the context is active report to its
    witness; objects built before it keep theirs (or their plain stdlib
    locks).  Contexts nest: on exit the witness that was active before
    is active again.
    """

    def __init__(self, witness: LockWitness | None = None) -> None:
        self.witness = witness if witness is not None else LockWitness()
        self._prev: LockWitness | None = None

    def __enter__(self) -> LockWitness:
        self._prev = _set_witness(self.witness)
        return self.witness

    def __exit__(self, *exc: object) -> None:
        _set_witness(self._prev)


def make_lock(name: str) -> threading.Lock:
    """A mutex named *name*: plain ``threading.Lock`` unless sanitizing."""
    _rank(name)
    w = _witness
    if w is not None:
        return TrackedLock(name, w)  # type: ignore[return-value]
    return threading.Lock()


def make_condition(name: str, lock: threading.Lock | None = None) -> threading.Condition:
    """A condition variable named *name* over *lock* (or a fresh mutex).

    Passing an existing lock aliases the condition to that lock's name
    (and rank) — the pattern used by the execution engine, where one
    mutex guards the state and the condition signals on it.
    """
    _rank(name)
    w = _witness
    if w is not None:
        if lock is not None and not isinstance(lock, TrackedLock):
            # A plain lock under sanitize mode would blind the witness
            # to every acquisition through the condition; wrap it only
            # if it was created outside the witnessing window.
            lock = TrackedLock(name, w)
        return TrackedCondition(name, w, lock)  # type: ignore[arg-type]
    return threading.Condition(lock)


def note_roundtrip() -> None:
    """Mark a process-pool round-trip (pipe send/receive cycle).

    Under sanitize mode, records which locks the calling thread holds
    at this point: a lock held across an IPC round-trip couples its
    critical section to another process's scheduling, and
    ``tests/conftest.py::assert_lock_sanity`` fails a run that did it.
    """
    w = _witness
    if w is not None:
        w.on_roundtrip()


if os.environ.get("REPRO_LOCK_SANITIZE") == "1":  # pragma: no cover
    _set_witness(LockWitness())
