"""Stream-vs-eager equivalence: streamed programs must match eager graphs.

The builders in :mod:`repro.core` and :mod:`repro.baselines` emit
:class:`~repro.runtime.program.GraphProgram` objects whose windows are
materialized incrementally — during execution, interleaved with task
completions under the look-ahead window.  The eager graph is the same
program materialized in one shot (``program.materialize()``).  This
pass proves the two are indistinguishable:

* **structural** — two independent builds, one grown window-by-window
  (through a real streamed execution when the graph is numeric), must
  agree task-for-task: names, kinds, costs, priorities, iterations,
  declared footprints and predecessor lists;
* **behavioral** — for numeric graphs, the streamed run's factors must
  reproduce a sequential eager run bitwise.

Any divergence is a builder bug: an ``emit`` callback that depends on
completion timing, cross-window closure state restored in the wrong
order, or an epilogue computed over a partially emitted graph.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.runtime.graph import Task, TaskGraph
from repro.runtime.program import GraphProgram
from repro.verify.findings import Finding

__all__ = ["check_stream_equivalence", "compare_graphs", "compare_results", "state_arrays"]

_RULE = "stream-eager-mismatch"


def _task_diffs(ts: Task, te: Task) -> list[str]:
    """Human-readable field divergences between one streamed/eager task pair."""
    diffs: list[str] = []
    if ts.name != te.name:
        diffs.append(f"name {ts.name!r} != {te.name!r}")
    if ts.kind != te.kind:
        diffs.append(f"kind {ts.kind.value} != {te.kind.value}")
    if ts.cost != te.cost:
        diffs.append(f"cost {ts.cost} != {te.cost}")
    if ts.priority != te.priority:
        diffs.append(f"priority {ts.priority:g} != {te.priority:g}")
    if ts.iteration != te.iteration:
        diffs.append(f"iteration {ts.iteration} != {te.iteration}")
    if ts.idempotent != te.idempotent:
        diffs.append(f"idempotent {ts.idempotent} != {te.idempotent}")
    if ts.reads != te.reads:
        diffs.append("declared read footprints differ")
    if ts.writes != te.writes:
        diffs.append("declared write footprints differ")
    if (ts.fn is None) != (te.fn is None):
        diffs.append(f"numeric closure {'missing' if ts.fn is None else 'unexpected'} in streamed build")
    return diffs


def compare_graphs(
    streamed: TaskGraph,
    eager: TaskGraph,
    *,
    graph: str | None = None,
    limit: int = 10,
) -> list[Finding]:
    """Compare a streamed-materialized graph against an eager build.

    Emits one ``error`` finding per divergent task (capped at *limit*)
    plus one for any task-count or edge mismatch.  An empty list means
    the two builds are identical up to the numeric closures' identity.
    """
    name = graph or eager.name
    findings: list[Finding] = []
    if streamed.name != eager.name:
        findings.append(
            Finding(
                _RULE,
                "error",
                name,
                f"graph names differ: streamed {streamed.name!r} vs eager {eager.name!r}; "
                "the program factory and the eager builder disagree on identity",
            )
        )
    if len(streamed.tasks) != len(eager.tasks):
        findings.append(
            Finding(
                _RULE,
                "error",
                name,
                f"streamed build emitted {len(streamed.tasks)} tasks but the eager build "
                f"has {len(eager.tasks)}; some window emitted a different task set",
            )
        )
        return findings
    reported = 0
    for ts, te in zip(streamed.tasks, eager.tasks, strict=True):
        diffs = _task_diffs(ts, te)
        if streamed.preds[ts.tid] != eager.preds[te.tid]:
            diffs.append(
                f"preds {streamed.preds[ts.tid]} != {eager.preds[te.tid]}"
            )
        if diffs:
            if reported < limit:
                findings.append(
                    Finding(
                        _RULE,
                        "error",
                        name,
                        f"task #{ts.tid} diverges between streamed and eager builds: "
                        + "; ".join(diffs),
                        tasks=(ts.tid,),
                    )
                )
            reported += 1
    if reported > limit:
        findings.append(
            Finding(
                _RULE,
                "error",
                name,
                f"{reported - limit} further divergent tasks suppressed",
            )
        )
    return findings


def state_arrays(A: np.ndarray, panels: list) -> list:
    """What the bitwise pass compares: the factored matrix, then every
    panel's state arrays (CALU's pivots and flags, CAQR's implicit-Q
    factors)."""
    return [A, *(a for p in panels for a in p.to_arrays().values())]


def compare_results(got: list[np.ndarray], want: list[np.ndarray], *, graph: str) -> list[Finding]:
    """Bitwise-compare the numeric outputs of a streamed (*got*) and an
    eager (*want*) run of one computation."""
    if len(got) != len(want):
        return [
            Finding(
                _RULE,
                "error",
                graph,
                f"the streamed run produced {len(got)} output arrays, the eager run "
                f"{len(want)}; the collectors disagree",
            )
        ]
    findings: list[Finding] = []
    for idx, (g, w) in enumerate(zip(got, want, strict=True)):
        if g.shape != w.shape or not np.array_equal(g, w):
            differing = int(np.count_nonzero(g != w)) if g.shape == w.shape else "all"
            findings.append(
                Finding(
                    _RULE,
                    "error",
                    graph,
                    f"output array {idx} differs bitwise ({differing} entries) between the "
                    f"streamed run (shape {g.shape}) and the eager run (shape {w.shape}); "
                    "streaming must not change the computed factors",
                )
            )
    return findings


def check_stream_equivalence(
    name: str,
    build: Callable[[], tuple[GraphProgram, Callable | None]],
    *,
    execute: bool = True,
    n_workers: int = 2,
) -> list[Finding]:
    """Prove one builder's streamed program matches its eager graph.

    *build* returns a fresh ``(program, collect)`` per call (same seed);
    ``collect`` (``None`` for symbolic graphs) gathers the numeric
    outputs to compare.  One build is the streamed side, a second one,
    materialized in one shot, its eager twin.  When the graph is numeric
    and *execute* is true, the program is run **streamed** through a
    threaded engine-backed executor (windows emitted as predecessors
    complete) against a sequential eager run; otherwise only structure
    is compared.
    """
    program, collect_s = build()
    twin, collect_e = build()
    eager = twin.materialize()
    numeric = execute and collect_s is not None and collect_e is not None
    if numeric:
        from repro.runtime.threaded import ThreadedExecutor

        ThreadedExecutor(n_workers).run(program)
        streamed_graph = program.graph
    else:
        streamed_graph = program.materialize()
    findings = compare_graphs(streamed_graph, eager, graph=name)
    if numeric:
        eager.run_sequential()
        findings.extend(compare_results(collect_s(), collect_e(), graph=name))
    return findings
