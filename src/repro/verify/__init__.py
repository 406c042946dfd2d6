"""Static and dynamic verification of the task-graph construction.

The paper's threading model is only sound if the dependency graph
orders every pair of conflicting block accesses.  This package proves
that property per graph instead of assuming it:

* :mod:`repro.verify.races` — static race detector over declared
  footprints (happens-before proof with counterexamples);
* :mod:`repro.verify.lint` — DAG linter (cycles, dead tasks, cost
  metadata vs kernel dims, look-ahead priority inversions,
  transitively redundant edges);
* :mod:`repro.verify.sanitize` — dynamic footprint sanitizer and
  random-schedule fuzzer for numeric graphs;
* :mod:`repro.verify.mutate` — edge-drop mutation used by the CLI
  self-test to prove the detector detects;
* :mod:`repro.verify.equivalence` — two builds of one graph must agree
  task-for-task (:func:`compare_graphs`);
* :mod:`repro.verify.lockcov` — the executor stack's lock coverage
  (LK005: an attribute written both under and outside its class's
  lock); lock *order* is ranked in :mod:`repro.runtime.sync` instead.

Run everything with ``python -m repro.verify``.
"""

from repro.verify.equivalence import compare_graphs
from repro.verify.findings import Finding, Report
from repro.verify.lint import lint_graph
from repro.verify.mutate import (
    conflict_edges,
    drop_edge,
    essential_conflict_edges,
    pick_droppable_edge,
)
from repro.verify.races import block_accesses, check_races
from repro.verify.reach import ancestor_masks, find_cycle, has_path
from repro.verify.sanitize import fuzz_schedules, random_topological_order, sanitize_footprints

__all__ = [
    "Finding",
    "Report",
    "compare_graphs",
    "lint_graph",
    "check_races",
    "block_accesses",
    "ancestor_masks",
    "has_path",
    "find_cycle",
    "sanitize_footprints",
    "fuzz_schedules",
    "random_topological_order",
    "conflict_edges",
    "essential_conflict_edges",
    "drop_edge",
    "pick_droppable_edge",
]
