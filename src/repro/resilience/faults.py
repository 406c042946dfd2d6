"""Deterministic fault injection for the execution engine.

A :class:`FaultPlan` is a seeded schedule of failures: per-task-kind
probabilities of raised exceptions, NaN/Inf output corruption and
artificial stalls.  Decisions are pure functions of ``(seed, task id,
attempt)`` — never of thread timing — so a faulty run is exactly
reproducible at any worker count, and a *transient* plan is guaranteed
to clear on retry.

``ThreadedExecutor(fault_plan=...)`` / ``ProcessExecutor(...)`` consult
it before (stall, raise) and after (corrupt) every task.  Faults live
only where code runs: the simulator prices fault-free runs.

Corruption targets the task's declared ``meta["corrupt"]`` hook when
present (the TSLU builders attach hooks that poison the tournament's
candidate buffers), else a NaN is poked into the registered ``target``
array at a seeded location.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.resilience.events import ResilienceEvent
from repro.runtime.sync import make_lock

__all__ = ["FaultPlan", "InjectedFault", "Rates"]

#: A fault probability: one float for every task kind, or a mapping
#: from task-kind letter (``"P"``, ``"L"``, ``"U"``, ``"S"``, ``"X"``,
#: with ``"*"`` as default) to a probability.
Rates = "float | Mapping[str, float]"

# Channel tags decorrelate the per-purpose random draws.  Tags 3 and 4
# are unused; the corruption site keeps tag 5 so seeded targets stay put.
_CH_RAISE, _CH_CORRUPT, _CH_STALL, _CH_TARGET = 0, 1, 2, 5


class InjectedFault(RuntimeError):
    """An exception raised by the fault-injection harness.

    ``pre_execution`` is True when the fault fired *before* the task's
    closure ran — the task performed no work, so a retry is always safe
    regardless of the task's idempotence.
    """

    def __init__(self, message: str, task: str = "", tid: int = -1, pre_execution: bool = True):
        super().__init__(message)
        self.task = task
        self.tid = tid
        self.pre_execution = pre_execution

    def __reduce__(self):
        # Default exception pickling replays ``cls(*self.args)`` with
        # only the message, losing task/tid/pre_execution; restore them
        # as state.
        message = self.args[0] if self.args else ""
        return (self.__class__, (message,), self.__dict__.copy())

    def __setstate__(self, state):
        self.__dict__.update(state)


class FaultPlan:
    """Seeded per-task-kind fault schedule.

    Parameters
    ----------
    seed:
        Root seed; all decisions derive deterministically from it.
    raise_rate, corrupt_rate, stall_rate:
        Probability (per task attempt) of raising an
        :class:`InjectedFault`, corrupting the task's output with
        NaN, or stalling for ``stall_s`` seconds.  Each accepts a
        float (all kinds) or a ``{"P": 0.5, "*": 0.0}`` mapping.
    stall_s:
        Length of an injected stall, in wall seconds.
    transient:
        When True (default) faults only fire on a task's first attempt,
        so a retry policy can always recover.  When False every attempt
        re-draws, modelling a persistent failure.
    max_faults:
        Optional cap on the total number of injected faults.
    target:
        Optional array to poison on ``corrupt`` faults when the task
        has no ``meta["corrupt"]`` hook.  ``calu``/``caqr`` register
        their working matrix here automatically when run with a
        fault-planning executor.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        raise_rate: "float | Mapping[str, float]" = 0.0,
        corrupt_rate: "float | Mapping[str, float]" = 0.0,
        stall_rate: "float | Mapping[str, float]" = 0.0,
        stall_s: float = 0.02,
        transient: bool = True,
        max_faults: int | None = None,
        target: np.ndarray | None = None,
    ) -> None:
        self.seed = int(seed)
        self.raise_rate = raise_rate
        self.corrupt_rate = corrupt_rate
        self.stall_rate = stall_rate
        self.stall_s = float(stall_s)
        self.transient = bool(transient)
        self.target = target
        self._budget = None if max_faults is None else int(max_faults)
        self._lock = make_lock("resilience.faults")
        self.injected: list[ResilienceEvent] = []

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------
    @staticmethod
    def _rate(table, kind: str) -> float:
        if isinstance(table, Mapping):
            return float(table.get(kind, table.get("*", 0.0)))
        return float(table)

    def _draw(self, channel: int, a: int, b: int) -> float:
        rng = np.random.default_rng([self.seed, channel, int(a) & 0x7FFFFFFF, int(b) & 0x7FFFFFFF])
        return float(rng.random())

    def _take_budget(self) -> bool:
        with self._lock:
            if self._budget is None:
                return True
            if self._budget <= 0:
                return False
            self._budget -= 1
            return True

    def _note(self, ev: ResilienceEvent, record: Callable[[ResilienceEvent], None] | None) -> None:
        with self._lock:
            self.injected.append(ev)
        if record is not None:
            record(ev)

    @property
    def n_injected(self) -> int:
        with self._lock:
            return len(self.injected)

    # ------------------------------------------------------------------
    # Task faults
    # ------------------------------------------------------------------
    def decide(self, task, attempt: int = 0) -> dict:
        """Side-effect-free decisions for one task attempt.

        Returns a dict with any of ``{"stall": seconds, "raise": True,
        "corrupt": True}``; empty when no fault fires.  Does not consume
        the fault budget — application does.
        """
        if self.transient and attempt > 0:
            return {}
        kind = task.kind.value
        out: dict = {}
        if self._draw(_CH_STALL, task.tid, attempt) < self._rate(self.stall_rate, kind):
            out["stall"] = self.stall_s
        if self._draw(_CH_RAISE, task.tid, attempt) < self._rate(self.raise_rate, kind):
            out["raise"] = True
        if self._draw(_CH_CORRUPT, task.tid, attempt) < self._rate(self.corrupt_rate, kind):
            out["corrupt"] = True
        return out

    def pre_task(self, task, attempt: int = 0, record=None) -> None:
        """Apply pre-execution faults: stall, then raise.

        Called by executors with no locks held.  May sleep; may raise
        :class:`InjectedFault`.
        """
        d = self.decide(task, attempt)
        if "stall" in d and self._take_budget():
            self._note(
                ResilienceEvent(
                    "fault_stall",
                    task.name,
                    task.tid,
                    detail=f"injected {d['stall'] * 1e3:.0f} ms stall",
                    value=d["stall"],
                ),
                record,
            )
            import time

            time.sleep(d["stall"])
        if d.get("raise") and self._take_budget():
            self._note(
                ResilienceEvent(
                    "fault_raise",
                    task.name,
                    task.tid,
                    detail=f"injected exception (attempt {attempt})",
                ),
                record,
            )
            raise InjectedFault(
                f"injected fault in task {task.name!r} (attempt {attempt})",
                task=task.name,
                tid=task.tid,
                pre_execution=True,
            )

    def post_task(self, task, attempt: int = 0, record=None) -> bool:
        """Apply post-execution corruption — *task*'s ``meta["corrupt"]``
        hook, else a NaN poked into the registered ``target`` array;
        returns True if applied."""
        d = self.decide(task, attempt)
        if not d.get("corrupt") or not self._take_budget():
            return False
        hook = task.meta.get("corrupt") if task.meta else None
        where = ""
        if hook is not None:
            hook()
            where = "corrupt hook"
        elif self.target is not None and self.target.size:
            idx = int(self._draw(_CH_TARGET, task.tid, 0) * self.target.size) % self.target.size
            self.target.flat[idx] = np.nan
            where = f"target[{idx}]"
        else:
            return False
        self._note(
            ResilienceEvent(
                "fault_corrupt",
                task.name,
                task.tid,
                detail=f"NaN corruption via {where}",
            ),
            record,
        )
        return True
