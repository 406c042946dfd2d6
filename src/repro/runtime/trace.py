"""Execution traces and schedule diagnostics.

Both executors record one :class:`TaskRecord` per task.  The resulting
:class:`Trace` answers the questions the paper's Figures 3-4 pose —
how much idle time does the panel factorization create, and does
raising ``Tr`` remove it — and renders ASCII Gantt charts equivalent to
those figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from repro.runtime.task import TaskKind

__all__ = ["TaskRecord", "Trace"]

# Gantt glyph per task kind, mirroring the paper's colour code:
# red bar = panel (P), yellow = L, green = trailing update (S).
_GLYPH = {"P": "#", "L": "o", "U": "u", "S": "-", "X": "x"}


@dataclass(frozen=True)
class TaskRecord:
    """Where and when one task ran."""

    tid: int
    name: str
    kind: TaskKind
    core: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An executed schedule: records plus aggregate statistics.

    ``events`` is the structured resilience log — every retry, injected
    fault, recomputation, health violation or watchdog finding the run
    produced, as :class:`~repro.resilience.events.ResilienceEvent`
    entries.  Fault-free runs have an empty log.

    ``stats`` carries scheduler-side counters from the
    :class:`~repro.runtime.engine.ExecutionEngine` (tasks, peak live
    tasks, skipped) and, on a plan's run, the seconds its emission took
    — empty for traces built by hand or deserialized from old JSON.
    """

    def __init__(
        self,
        records: Iterable[TaskRecord],
        n_cores: int,
        events: Iterable = (),
        stats: dict | None = None,
    ) -> None:
        self.records = sorted(records, key=attrgetter("start", "core"))
        self.n_cores = n_cores
        self.events = list(events)
        self.stats = dict(stats) if stats else {}

    @property
    def makespan(self) -> float:
        if not self.records:
            return 0.0
        t0 = min(r.start for r in self.records)
        t1 = max(r.end for r in self.records)
        return t1 - t0

    def busy_time(self, core: int | None = None) -> float:
        """Total busy seconds, over one core or all of them."""
        recs = self.records if core is None else [r for r in self.records if r.core == core]
        return sum(r.duration for r in recs)

    def idle_fraction(self) -> float:
        """Fraction of core-seconds spent idle over the makespan window."""
        span = self.makespan
        if span == 0.0:
            return 0.0
        return 1.0 - self.busy_time() / (span * self.n_cores)

    def resilience_summary(self) -> dict[str, int]:
        """Event counts by kind (``{"retry": 2, "recompute": 1, ...}``)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def retries(self) -> int:
        """Total task attempts beyond the first."""
        return self.resilience_summary().get("retry", 0)

    def busy_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.records:
            out[r.kind.value] = out.get(r.kind.value, 0.0) + r.duration
        return out

    def gflops(self, flops: float) -> float:
        """Rate in GFLOP/s for an algorithm performing *flops* operations."""
        span = self.makespan
        return flops / span / 1e9 if span > 0 else 0.0

    def validate_schedule(self, graph) -> None:
        """Check core exclusivity and dependency ordering; raise on violation.

        *graph* is the :class:`~repro.runtime.graph.TaskGraph` that was
        executed.  Used heavily in tests: a simulated schedule must
        never overlap two tasks on one core nor start a task before all
        its predecessors finished.
        """
        eps = 1e-12
        per_core: dict[int, list[TaskRecord]] = {}
        for r in self.records:
            per_core.setdefault(r.core, []).append(r)
        for core, recs in per_core.items():
            recs = sorted(recs, key=lambda r: r.start)
            for a, b in zip(recs, recs[1:], strict=False):
                if b.start < a.end - eps:
                    raise AssertionError(
                        f"core {core}: tasks {a.name!r} and {b.name!r} overlap "
                        f"({a.start:.3g}-{a.end:.3g} vs {b.start:.3g}-{b.end:.3g})"
                    )
        end_of = {r.tid: r.end for r in self.records}
        start_of = {r.tid: r.start for r in self.records}
        for t in range(len(graph.tasks)):
            for p in graph.preds[t]:
                # Tasks a resume skipped have no record; the
                # ordering constraint only applies when both ran.
                if t not in start_of or p not in end_of:
                    continue
                if start_of[t] < end_of[p] - eps:
                    raise AssertionError(
                        f"task {graph.tasks[t].name!r} started before "
                        f"predecessor {graph.tasks[p].name!r} finished"
                    )

    # ------------------------------------------------------------------
    # Rendering (paper Figures 3 and 4)
    # ------------------------------------------------------------------
    def gantt(self, width: int = 100) -> str:
        """ASCII Gantt chart: one row per core, time left to right.

        Glyphs: ``#`` panel (P, the paper's red bar), ``o`` compute-L
        (yellow), ``u`` compute-U, ``-`` trailing update (green),
        ``x`` bookkeeping, space = idle.
        """
        span = self.makespan
        if span == 0.0 or not self.records:
            return "(empty trace)"
        t0 = min(r.start for r in self.records)
        rows = []
        for core in range(self.n_cores):
            row = [" "] * width
            for r in self.records:
                if r.core != core or r.duration <= 0:
                    continue
                c0 = int((r.start - t0) / span * width)
                c1 = max(c0 + 1, int((r.end - t0) / span * width))
                glyph = _GLYPH.get(r.kind.value, "?")
                for c in range(c0, min(c1, width)):
                    row[c] = glyph
            rows.append(f"core {core:2d} |{''.join(row)}|")
        legend = "legend: #=panel(P)  o=L  u=U  -=update(S)  x=other  ' '=idle"
        return "\n".join(rows + [legend])

    def summary(self) -> str:
        by_kind = self.busy_by_kind()
        kinds = ", ".join(f"{k}: {v:.3g}s" for k, v in sorted(by_kind.items()))
        line = (
            f"makespan {self.makespan:.4g}s on {self.n_cores} cores, "
            f"idle {100 * self.idle_fraction():.1f}%  ({kinds})"
        )
        res = self.resilience_summary()
        if res:
            line += "  [" + ", ".join(f"{k}: {v}" for k, v in sorted(res.items())) + "]"
        return line

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the trace (metadata + one record per task) to JSON."""
        import json

        return json.dumps(
            {
                "n_cores": self.n_cores,
                "makespan": self.makespan,
                "idle_fraction": self.idle_fraction(),
                "stats": self.stats,
                "events": [ev.to_dict() for ev in self.events],
                "records": [
                    {
                        "tid": r.tid,
                        "name": r.name,
                        "kind": r.kind.value,
                        "core": r.core,
                        "start": r.start,
                        "end": r.end,
                    }
                    for r in self.records
                ],
            }
        )

    @classmethod
    def from_json(cls, data: str) -> "Trace":
        """Inverse of :meth:`to_json`.

        Rebuilds records (with :class:`~repro.runtime.task.TaskKind`
        members) and resilience events, so diagnostics like
        :meth:`resilience_summary` and :meth:`validate_schedule` work
        on a deserialized trace exactly as on the original.
        """
        import json

        from repro.resilience.events import ResilienceEvent

        d = json.loads(data)
        records = [
            TaskRecord(
                tid=int(r["tid"]),
                name=r["name"],
                kind=TaskKind(r["kind"]),
                core=int(r["core"]),
                start=float(r["start"]),
                end=float(r["end"]),
            )
            for r in d.get("records", ())
        ]
        events = [ResilienceEvent.from_dict(ev) for ev in d.get("events", ())]
        return cls(records, int(d["n_cores"]), events, stats=d.get("stats"))

    def to_chrome_tracing(self, time_unit: float = 1e6) -> str:
        """Serialize to the Chrome tracing JSON format.

        Load the output in ``chrome://tracing`` / Perfetto: one row per
        core, one complete event ("ph": "X") per task, durations in
        microseconds (``time_unit`` converts seconds to the display
        unit).
        """
        import json

        events = [
            {
                "name": r.name,
                "cat": r.kind.value,
                "ph": "X",
                "ts": r.start * time_unit,
                "dur": r.duration * time_unit,
                "pid": 0,
                "tid": r.core,
                "args": {"task_id": r.tid},
            }
            for r in self.records
        ]
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
            for core in range(self.n_cores)
        ]
        return json.dumps({"traceEvents": meta + events, "displayTimeUnit": "ms"})
