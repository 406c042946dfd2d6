"""Graph equivalence: two builds of one computation must agree.

The builders in :mod:`repro.core` and :mod:`repro.baselines` emit
:class:`~repro.runtime.program.GraphProgram` objects; a plan's graph is
the program materialized once.  :func:`compare_graphs` proves two builds
indistinguishable task-for-task — names, kinds, costs, priorities,
iterations, declared footprints and predecessor lists — which is how a
service plan is shown to run what :func:`repro.core.driver.compile`
builds, and how a builder is shown deterministic.  Any divergence is a
builder bug: an ``emit`` callback that depends on state outside its
arguments, or closure state carried across windows in the wrong order.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.graph import Task, TaskGraph
from repro.verify.findings import Finding

__all__ = ["compare_graphs", "state_arrays"]

_RULE = "graph-mismatch"


def _task_diffs(tg: Task, tw: Task) -> list[str]:
    """Human-readable field divergences between one task pair."""
    diffs: list[str] = []
    if tg.name != tw.name:
        diffs.append(f"name {tg.name!r} != {tw.name!r}")
    if tg.kind != tw.kind:
        diffs.append(f"kind {tg.kind.value} != {tw.kind.value}")
    if tg.cost != tw.cost:
        diffs.append(f"cost {tg.cost} != {tw.cost}")
    if tg.priority != tw.priority:
        diffs.append(f"priority {tg.priority:g} != {tw.priority:g}")
    if tg.iteration != tw.iteration:
        diffs.append(f"iteration {tg.iteration} != {tw.iteration}")
    if tg.idempotent != tw.idempotent:
        diffs.append(f"idempotent {tg.idempotent} != {tw.idempotent}")
    if tg.reads != tw.reads:
        diffs.append("declared read footprints differ")
    if tg.writes != tw.writes:
        diffs.append("declared write footprints differ")
    if (tg.fn is None) != (tw.fn is None):
        diffs.append(f"numeric closure {'missing' if tg.fn is None else 'unexpected'}")
    return diffs


def compare_graphs(
    got: TaskGraph,
    want: TaskGraph,
    *,
    graph: str | None = None,
    limit: int = 10,
) -> list[Finding]:
    """Compare a build (*got*) against a reference build (*want*).

    Emits one ``error`` finding per divergent task (capped at *limit*)
    plus one for any task-count or edge mismatch.  An empty list means
    the two builds are identical up to the numeric closures' identity.
    """
    name = graph or want.name
    findings: list[Finding] = []
    if got.name != want.name:
        findings.append(
            Finding(_RULE, "error", name, f"graph names differ: {got.name!r} vs {want.name!r}")
        )
    if len(got.tasks) != len(want.tasks):
        findings.append(
            Finding(
                _RULE,
                "error",
                name,
                f"one build emitted {len(got.tasks)} tasks, the other {len(want.tasks)}; "
                "some window emitted a different task set",
            )
        )
        return findings
    reported = 0
    for tg, tw in zip(got.tasks, want.tasks, strict=True):
        diffs = _task_diffs(tg, tw)
        if got.preds[tg.tid] != want.preds[tw.tid]:
            diffs.append(f"preds {got.preds[tg.tid]} != {want.preds[tw.tid]}")
        if diffs:
            if reported < limit:
                findings.append(
                    Finding(
                        _RULE,
                        "error",
                        name,
                        f"task #{tg.tid} diverges between the builds: " + "; ".join(diffs),
                        tasks=(tg.tid,),
                    )
                )
            reported += 1
    if reported > limit:
        findings.append(
            Finding(_RULE, "error", name, f"{reported - limit} further divergent tasks suppressed")
        )
    return findings


def state_arrays(A: np.ndarray, panels: list) -> list:
    """A run's numeric outputs: the factored matrix, then every panel's
    state arrays (CALU's pivots and flags, CAQR's implicit-Q factors)."""
    return [A, *(a for p in panels for a in p.to_arrays().values())]
