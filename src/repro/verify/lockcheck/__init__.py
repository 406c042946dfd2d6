"""Lockcheck: static deadlock / lock-discipline analysis plus a dynamic
lock-witness sanitizer for the runtime and service layers.

The pass answers, for the executor stack itself (ExecutionEngine worker
loops, the process pool's per-core locks, the service layer's admission
/ breaker / respawn-governor machinery), the same question the race detector
answers for task graphs: *is the synchronization provably consistent?*

* :func:`analyze` / :func:`analyze_sources` — static AST pass:
  lock discovery, interprocedural lock-order graph, cycle detection
  with witness paths, lint rules LK001–LK007.
* :func:`cross_check` / :func:`apply_witness` / :func:`coverage` —
  compare a run's :class:`repro.runtime.sync.LockWitness` against the
  static graph (rules LK101/LK102, cycle downgrades, edge coverage).
* :func:`lock_self_test` — mutation self-test (injected inversion and
  unlocked write must be named by exact site).
* :func:`run_lockcheck` — everything above as one gated
  :class:`repro.verify.findings.Report`, suppressions applied.

Rule catalogue and suppression-file format: ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

from repro.verify.findings import Report
from repro.verify.lockcheck.graph import AnalysisResult, EdgeWitness, analyze, analyze_sources
from repro.verify.lockcheck.selftest import lock_self_test
from repro.verify.lockcheck.suppressions import (
    Suppression,
    SuppressionFile,
    apply_suppressions,
    load_suppressions,
)
from repro.verify.lockcheck.witness import apply_witness, coverage, cross_check

__all__ = [
    "AnalysisResult",
    "EdgeWitness",
    "Suppression",
    "SuppressionFile",
    "analyze",
    "analyze_sources",
    "apply_suppressions",
    "apply_witness",
    "coverage",
    "cross_check",
    "load_suppressions",
    "lock_self_test",
    "run_lockcheck",
]


def run_lockcheck(
    root: str | None = None, suppressions_path: str | None = None
) -> tuple[Report, AnalysisResult]:
    """The full static pass over the installed package, gated and suppressed.

    Returns ``(report, analysis)``: the report carries unsuppressed
    findings (gating) plus suppression bookkeeping notes; the analysis
    result carries the lock inventory, the lock-order graph and the
    per-entry-point reachable-lock sets for callers that want them
    (the dynamic cross-check, the JSON dump, tests).
    """
    analysis = analyze(root)
    suppressions = load_suppressions(suppressions_path)
    kept, notes = apply_suppressions(analysis.findings, suppressions)
    report = Report("lockcheck")
    report.extend("lockcheck", kept + notes)
    return report, analysis
