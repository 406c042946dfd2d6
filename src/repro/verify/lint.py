"""DAG linter: structural and metadata rules for task graphs.

Rules (rule id → severity):

* ``cycle`` (error) — the graph is not a DAG; the finding carries a
  minimal cycle witness.
* ``cost-flops`` (error) — a task's flop count contradicts its kernel
  dimensions: it is not a whole multiple of the kernel's closed form in
  the one kernel table (:data:`repro.analysis.flops.KERNELS`, which
  ``Cost.of`` prices from; a task may batch several unit operations).
* ``cost-words`` (warning) — negative/non-finite word counts, or a
  flop-bearing task with no memory traffic.
* ``isolated-task`` (warning) — a task with neither predecessors nor
  successors in a multi-task graph (unreachable/dead work).
* ``priority-inversion`` (warning) — a look-ahead-window update (a U/S
  task of block column ``K+1`` emitted at iteration ``K``) outranked
  by work of iteration ``K+2`` or later; breaks the paper's schedule.
* ``redundant-edge`` (info) — an edge implied by a longer path.  The
  block tracker's conservative WAW policy (writer depends on the last
  writer *and* the readers since) produces these by design, so they
  are notes, not defects.
"""

from __future__ import annotations

import math

from repro.analysis.flops import KERNELS
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Task
from repro.verify.findings import Finding
from repro.verify.reach import ancestor_masks, find_cycle

__all__ = ["lint_graph", "expected_flops"]

_REL_TOL = 1e-6


def expected_flops(task: Task) -> float | None:
    """Unit flop count implied by the task's kernel and dimensions.

    Read from the one kernel table, :data:`repro.analysis.flops.KERNELS`
    (0 for its data-movement kernels); None for a kernel it does not
    list — hand-built graphs may name their own, and those are not linted.
    """
    entry = KERNELS.get(task.cost.kernel)
    if entry is None:
        return None
    return float(entry[0](task.cost.m, task.cost.n, task.cost.k))


def _check_cost(graph: TaskGraph, task: Task) -> list[Finding]:
    out: list[Finding] = []
    c = task.cost
    if not math.isfinite(c.flops) or c.flops < 0:
        out.append(
            Finding(
                rule="cost-flops",
                severity="error",
                graph=graph.name,
                message=f"task #{task.tid} {task.name!r}: invalid flop count {c.flops!r}",
                tasks=(task.tid,),
            )
        )
        return out
    if not math.isfinite(c.words) or c.words < 0:
        out.append(
            Finding(
                rule="cost-words",
                severity="warning",
                graph=graph.name,
                message=f"task #{task.tid} {task.name!r}: invalid word count {c.words!r}",
                tasks=(task.tid,),
            )
        )
    elif c.flops > 0 and c.words <= 0:
        out.append(
            Finding(
                rule="cost-words",
                severity="warning",
                graph=graph.name,
                message=(
                    f"task #{task.tid} {task.name!r} ({c.kernel}) performs {c.flops:g} "
                    "flops but declares no memory traffic"
                ),
                tasks=(task.tid,),
            )
        )
    unit = expected_flops(task)
    if unit is None:
        return out
    if unit == 0.0:
        ok = c.flops == 0.0
        detail = "expected 0 (bookkeeping kernel)"
    else:
        # A task may batch several unit operations (``Cost.of(count=)``:
        # a flat tree merges Tr-1 pairs in one task).
        ratio = c.flops / unit
        nearest = max(1.0, round(ratio))
        ok = abs(ratio - nearest) <= _REL_TOL * nearest
        detail = (
            f"expected a whole multiple of {unit:g} from dims "
            f"(m={c.m}, n={c.n}, k={c.k}), got {c.flops:g}"
        )
    if not ok:
        out.append(
            Finding(
                rule="cost-flops",
                severity="error",
                graph=graph.name,
                message=(
                    f"task #{task.tid} {task.name!r}: flop count inconsistent with "
                    f"kernel {c.kernel!r} dims — {detail}"
                ),
                tasks=(task.tid,),
            )
        )
    return out


def _check_priorities(graph: TaskGraph) -> list[Finding]:
    """Look-ahead-1 inversions: a window update outranked by K+2 work.

    The paper's schedule requires the updates of block column ``K+1``
    (emitted at iteration ``K``, tagged ``meta["col"] == K+1``) to run
    before any work of panel ``K+2`` becomes preferable.  Dependencies
    always dominate, so the check is on static priorities: the window
    task must outrank every task of iteration ``>= K+2``.
    """
    out: list[Finding] = []
    if not graph.tasks:
        return out
    max_iter = max(t.iteration for t in graph.tasks)
    # Highest priority task per iteration, then suffix maxima.
    best: dict[int, Task] = {}
    for t in graph.tasks:
        cur = best.get(t.iteration)
        if cur is None or t.priority > cur.priority:
            best[t.iteration] = t
    suffix: list[Task | None] = [None] * (max_iter + 2)
    run: Task | None = None
    for it in range(max_iter, -1, -1):
        cand = best.get(it)
        if run is None or (cand is not None and cand.priority > run.priority):
            run = cand if run is None or cand.priority > run.priority else run
        suffix[it] = run
    for t in graph.tasks:
        col = t.meta.get("col")
        if t.kind.value not in ("U", "S") or col != t.iteration + 1:
            continue
        later = suffix[t.iteration + 2] if t.iteration + 2 <= max_iter else None
        if later is not None and later.priority >= t.priority:
            out.append(
                Finding(
                    rule="priority-inversion",
                    severity="warning",
                    graph=graph.name,
                    message=(
                        f"look-ahead window task #{t.tid} {t.name!r} (iteration "
                        f"{t.iteration}, column {col}, priority {t.priority:g}) is "
                        f"outranked by #{later.tid} {later.name!r} (iteration "
                        f"{later.iteration}, priority {later.priority:g}); panel "
                        f"{t.iteration + 2}+ work would run first"
                    ),
                    tasks=(t.tid, later.tid),
                )
            )
    return out


def lint_graph(graph: TaskGraph, *, redundant_edges: bool = True) -> list[Finding]:
    """Run all lint rules; returns findings (possibly empty)."""
    findings: list[Finding] = []

    cycle = find_cycle(graph)
    if cycle is not None:
        names = " -> ".join(f"#{t} {graph.tasks[t].name!r}" for t in cycle)
        findings.append(
            Finding(
                rule="cycle",
                severity="error",
                graph=graph.name,
                message=f"graph contains a cycle: {names} -> #{cycle[0]}",
                tasks=tuple(cycle),
            )
        )
        return findings  # reachability-based rules need a DAG

    for task in graph.tasks:
        findings.extend(_check_cost(graph, task))

    if len(graph.tasks) > 1:
        for task in graph.tasks:
            if not graph.preds[task.tid] and not graph.succs[task.tid]:
                findings.append(
                    Finding(
                        rule="isolated-task",
                        severity="warning",
                        graph=graph.name,
                        message=(
                            f"task #{task.tid} {task.name!r} has no predecessors and no "
                            "successors — unreachable/dead work in a connected algorithm"
                        ),
                        tasks=(task.tid,),
                    )
                )

    findings.extend(_check_priorities(graph))

    if redundant_edges:
        anc = ancestor_masks(graph)
        for v in range(len(graph.tasks)):
            preds = graph.preds[v]
            if len(preds) < 2:
                continue
            for u in preds:
                if any(w != u and ((anc[w] >> u) & 1) for w in preds):
                    findings.append(
                        Finding(
                            rule="redundant-edge",
                            severity="info",
                            graph=graph.name,
                            message=(
                                f"edge {u} -> {v} is implied by a longer path "
                                f"(transitively redundant)"
                            ),
                            tasks=(u, v),
                        )
                    )
    return findings
