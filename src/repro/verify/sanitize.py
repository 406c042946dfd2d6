"""Dynamic verification: footprint sanitizer and schedule fuzzer.

The block tracker derives every dependency from the footprints the
builders declare, so a graph is race-free by construction exactly when
those declarations are honest.  This module checks that on numeric
graphs:

* :func:`sanitize_footprints` executes a graph sequentially and
  shadow-compares the matrix before/after every task: any element a
  closure mutated outside its declared write blocks is a ``footprint``
  error (the declaration the tracker derived edges from was a lie).
* :func:`fuzz_schedules` re-executes freshly built graphs under N
  seeded random topological orders and asserts the results (the matrix
  and every output the build's ``collect()`` names) are *bitwise*
  identical to the program-order run.

The sanitizer only sees the shared matrix: workspace-only writes
(``("cand", K, s)`` candidate buffers, pivot sequences, Q factors)
leave no matrix trace there.  Their ordering is the tracker's, pinned
by its own tests; the fuzzer compares their final values.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.runtime.graph import TaskGraph
from repro.verify.findings import Finding

__all__ = ["sanitize_footprints", "fuzz_schedules", "random_topological_order", "is_matrix_block"]


def is_matrix_block(key: object) -> bool:
    """True for ``(i, j)`` block-index keys (workspace keys are tagged tuples)."""
    return (
        isinstance(key, tuple)
        and len(key) == 2
        and all(isinstance(x, (int, np.integer)) for x in key)
    )


def _changed_blocks(before: np.ndarray, after: np.ndarray, b: int) -> set[tuple[int, int]]:
    """Block indices of elements that differ (NaN == NaN counts as equal)."""
    diff = before != after
    both_nan = np.isnan(before) & np.isnan(after)
    diff &= ~both_nan
    rows, cols = np.nonzero(diff)
    return {(int(i) // b, int(j) // b) for i, j in zip(rows, cols, strict=True)}


def sanitize_footprints(graph: TaskGraph, A: np.ndarray, b: int) -> list[Finding]:
    """Execute ``graph`` sequentially, shadow-checking every write.

    ``A`` must be the matrix the graph's closures were built over and
    ``b`` the block size of its layout.  Runs tasks in topological
    order (so the factorization itself is still correct afterwards)
    and reports a ``footprint`` error for every task that mutated a
    matrix block outside its declared write set.
    """
    findings: list[Finding] = []
    for tid in graph.topological_order():
        task = graph.tasks[tid]
        if task.fn is None:
            continue
        before = A.copy()
        task.fn()
        touched = _changed_blocks(before, A, b)
        declared = {k for k in task.writes if is_matrix_block(k)}
        rogue = sorted(touched - declared)
        if rogue:
            shown = ", ".join(repr(x) for x in rogue[:4])
            more = f" (+{len(rogue) - 4} more)" if len(rogue) > 4 else ""
            findings.append(
                Finding(
                    rule="footprint",
                    severity="error",
                    graph=graph.name,
                    message=(
                        f"task #{tid} {task.name!r} mutated block(s) {shown}{more} "
                        f"outside its declared write set "
                        f"{sorted(declared, key=repr)!r} — the tracker derived this "
                        "graph's edges from a false footprint; fix the "
                        "builder's reads/writes declaration"
                    ),
                    tasks=(tid,),
                    block=rogue[0],
                )
            )
    return findings


def random_topological_order(graph: TaskGraph, rng: np.random.Generator) -> list[int]:
    """A uniformly seeded random linear extension of the DAG (Kahn + choice)."""
    indeg = graph.indegrees()
    ready = sorted(t for t, d in enumerate(indeg) if d == 0)
    order: list[int] = []
    while ready:
        t = ready.pop(int(rng.integers(len(ready))))
        order.append(t)
        for s in graph.succs[t]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(graph.tasks):
        raise ValueError(f"graph {graph.name!r} has a cycle; cannot fuzz schedules")
    return order


def _run_order(graph: TaskGraph, order: Sequence[int]) -> None:
    done: set[int] = set()
    for t in order:
        if any(p not in done for p in graph.preds[t]):
            raise ValueError(f"order violates dependencies at task {t}")
        fn = graph.tasks[t].fn
        if fn is not None:
            fn()
        done.add(t)


def fuzz_schedules(
    build: Callable[[], tuple[TaskGraph, Callable[[], list[np.ndarray]]]],
    runs: int = 5,
    seed: int = 0,
) -> list[Finding]:
    """Assert results are bitwise schedule-independent.

    ``build`` constructs a *fresh* numeric graph and returns
    ``(graph, collect)`` where ``collect()`` yields the output arrays
    to compare (factors, pivot sequences, ...).  The first build runs
    in program (topological) order to produce the reference; each of
    the ``runs`` subsequent builds runs under a different seeded
    random linear extension and must reproduce the reference bit for
    bit.  Any divergence is a ``schedule-dependence`` error — evidence
    of a conflict a declared footprint hid from the tracker, or of a
    non-associative reduction leaking schedule order into the result.
    """
    graph, collect = build()
    _run_order(graph, graph.topological_order())
    reference = [np.array(a, copy=True) for a in collect()]
    name = graph.name

    findings: list[Finding] = []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        graph, collect = build()
        _run_order(graph, random_topological_order(graph, rng))
        outputs = list(collect())
        if len(outputs) != len(reference):
            findings.append(
                Finding(
                    rule="schedule-dependence",
                    severity="error",
                    graph=name,
                    message=(
                        f"fuzz run {run} (seed {seed + run}) produced "
                        f"{len(outputs)} output arrays, reference has {len(reference)}"
                    ),
                )
            )
            continue
        for idx, (got, ref) in enumerate(zip(outputs, reference, strict=True)):
            if got.shape != ref.shape or got.tobytes() != ref.tobytes():
                where = "shape mismatch" if got.shape != ref.shape else "bitwise mismatch"
                findings.append(
                    Finding(
                        rule="schedule-dependence",
                        severity="error",
                        graph=name,
                        message=(
                            f"fuzz run {run} (seed {seed + run}): output array {idx} "
                            f"{where} vs program-order reference — the result depends "
                            "on the schedule; a conflicting access pair is unordered"
                        ),
                    )
                )
    return findings
