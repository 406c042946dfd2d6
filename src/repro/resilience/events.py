"""Structured resilience events.

Every resilience mechanism — fault injection, task retry, watchdog
timeouts, numerical health guards, graceful degradation, message
retransmission — reports what it did as a :class:`ResilienceEvent`.
Executors collect the events alongside the schedule records, so a
:class:`~repro.runtime.trace.Trace` (or a raised
:class:`~repro.resilience.recovery.RuntimeFailure`) carries a complete,
machine-readable account of everything that went wrong and every
recovery action taken.  Benchmarks chart the counts; tests assert on
them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceEvent", "EVENT_KINDS"]

#: Canonical event kinds, in roughly increasing severity:
#:
#: ``fault_stall`` / ``fault_raise`` / ``fault_corrupt``
#:     A fault the :class:`~repro.resilience.faults.FaultPlan` injected.
#: ``retry``
#:     A failed task attempt that the retry policy re-ran.
#: ``degraded``
#:     A graceful-degradation decision (e.g. a CALU panel falling back
#:     from tournament to partial pivoting).
#: ``refine``
#:     A solver escalated to (additional) iterative refinement.
#: ``comm_drop`` / ``comm_corrupt``
#:     A message fault detected and repaired by retransmission.
#: ``abft_correct``
#:     An ABFT checksum repaired a corrupted element in place.
#: ``recompute``
#:     A corrupted reduction subtree was recomputed from clean data
#:     (e.g. a TSLU tournament replayed from the untouched panel).
#: ``checkpoint`` / ``resume``
#:     A panel snapshot was written / a run restarted from one,
#:     skipping the tasks it covers.
#: ``rank_loss``
#:     A distributed participant died; survivors recomputed its share.
#: ``health``
#:     A numerical health guard fired (NaN/Inf block, pivot growth).
#: ``timeout`` / ``stall`` / ``deadlock`` / ``worker_death``
#:     Watchdog findings; always fatal.
#: ``autotune``
#:     The dispatch autotuner recorded its backend decision
#:     (informational; see :mod:`repro.machine.autotune`).
EVENT_KINDS = (
    "fault_stall",
    "fault_raise",
    "fault_corrupt",
    "retry",
    "degraded",
    "refine",
    "comm_drop",
    "comm_corrupt",
    "abft_correct",
    "recompute",
    "checkpoint",
    "resume",
    "rank_loss",
    "health",
    "timeout",
    "stall",
    "deadlock",
    "worker_death",
    "autotune",
)


@dataclass(frozen=True)
class ResilienceEvent:
    """One resilience occurrence: what happened, to which task, how bad.

    Parameters
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    task:
        Name of the task involved (``""`` for runtime-level events).
    tid:
        Task id (``-1`` when not tied to a single task).
    detail:
        Human-readable description.
    value:
        Optional numeric payload (growth factor, residual, seconds).
    fatal:
        True when the event aborts the run (the executor raises a
        :class:`~repro.resilience.recovery.RuntimeFailure`).
    """

    kind: str
    task: str = ""
    tid: int = -1
    detail: str = ""
    value: float | None = None
    fatal: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task": self.task,
            "tid": self.tid,
            "detail": self.detail,
            "value": self.value,
            "fatal": self.fatal,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResilienceEvent":
        """Inverse of :meth:`to_dict` (trace JSON round-trips)."""
        return cls(
            kind=d["kind"],
            task=d.get("task", ""),
            tid=int(d.get("tid", -1)),
            detail=d.get("detail", ""),
            value=d.get("value"),
            fatal=bool(d.get("fatal", False)),
        )
