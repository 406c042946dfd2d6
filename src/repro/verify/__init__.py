"""Verification of what construction cannot guarantee.

Race freedom is not re-proved here: every package graph gets its edges
from :class:`~repro.runtime.graph.BlockTracker` (a dependency outside
``[0, tid)`` raises in :meth:`~repro.runtime.graph.TaskGraph.add`), and
the tracker's rules are pinned by ``tests/runtime/test_graph.py`` and
the golden graphs.  What remains checks the inputs the tracker trusts
and the code around it:

* :mod:`repro.verify.sanitize` — dynamic footprint sanitizer (an op
  writing outside its declared blocks) and random-schedule fuzzer for
  numeric graphs;
* :mod:`repro.verify.equivalence` — two builds of one graph must agree
  task-for-task (:func:`compare_graphs`);
* :mod:`repro.verify.lockcov` — the executor stack's lock coverage
  (LK005: an attribute written both under and outside its class's
  lock); lock *order* is ranked in :mod:`repro.runtime.sync` instead.

Run everything with ``python -m repro.verify``.
"""

from repro.verify.equivalence import compare_graphs
from repro.verify.findings import Finding, Report
from repro.verify.sanitize import fuzz_schedules, random_topological_order, sanitize_footprints

__all__ = [
    "Finding",
    "Report",
    "compare_graphs",
    "sanitize_footprints",
    "fuzz_schedules",
    "random_topological_order",
]
