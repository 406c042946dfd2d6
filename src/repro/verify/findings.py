"""Finding and report types shared by all verification passes.

A :class:`Finding` is one defect a pass produced; a :class:`Report`
aggregates the findings of every pass that ran over one graph (or, for
LK005, over the package).  Severities:

``error``
    The graph is wrong: a closure writing outside its declared
    footprint, a schedule-dependent result, or two builds of one
    computation that disagree.
``warning``
    Almost certainly a bug even if execution may survive it: an
    attribute written both under and outside its class's lock (LK005).

Every finding gates (the CLI exits nonzero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "Report", "SEVERITIES"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One defect found by a verification pass.

    ``tasks`` are the task ids involved (the offender, when there is
    one); ``block`` is the offending block key when one exists.
    ``message`` is a human-actionable description including the fix.
    """

    rule: str
    severity: str
    graph: str
    message: str
    tasks: tuple[int, ...] = ()
    block: object = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        loc = f" tasks={list(self.tasks)}" if self.tasks else ""
        blk = f" block={self.block!r}" if self.block is not None else ""
        return f"[{self.severity}] {self.rule}:{loc}{blk} {self.message}"


@dataclass
class Report:
    """All findings of the passes that ran over one graph."""

    graph: str
    findings: list[Finding] = field(default_factory=list)
    passes: list[str] = field(default_factory=list)

    def extend(self, pass_name: str, findings: list[Finding]) -> None:
        if pass_name not in self.passes:
            self.passes.append(pass_name)
        self.findings.extend(findings)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        e = sum(f.severity == "error" for f in self.findings)
        w = len(self.findings) - e
        status = "ok" if self.ok else "FAIL"
        return f"{self.graph}: {status} ({', '.join(self.passes)}; {e} errors, {w} warnings)"
