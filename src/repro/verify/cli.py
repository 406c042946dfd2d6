"""``python -m repro.verify`` — run the verification passes.

Race freedom holds by construction: every task of a package graph gets
its dependencies from :class:`~repro.runtime.graph.BlockTracker`, and
``tests/runtime/test_graph.py`` and ``tests/core/golden_graphs.json``
pin the tracker's rules.  What construction cannot see is a footprint
that lies — an op writing a block it did not declare — so this sweep
executes the eight numeric CALU/CAQR targets (binary and flat trees,
two sizes each) under the dynamic footprint sanitizer and the schedule
fuzzer, then runs the LK005 lock-coverage pass
(:mod:`repro.verify.lockcov`) over the package.  Exits nonzero on any
finding.

``--self-test`` instead verifies the verifier: it misdeclares a
numeric task's write footprint and asserts the sanitizer flags it,
then runs the lock mutation self-test.  Exits nonzero when an injected
defect goes *undetected*.
"""

from __future__ import annotations

import argparse
import itertools
from typing import Callable

import numpy as np

from repro.core.driver import ALGORITHMS, compile
from repro.core.trees import TreeKind
from repro.runtime.graph import TaskGraph
from repro.verify.equivalence import state_arrays
from repro.verify.findings import Report
from repro.verify.lockcov import check_package, lock_self_test
from repro.verify.sanitize import fuzz_schedules, is_matrix_block, sanitize_footprints

__all__ = ["main", "verify_graph", "default_targets"]

_MATRIX_SEED = 20100419  # IPDPS 2010 — fixed so runs are reproducible


class Target:
    """One numeric graph to verify: the graph the driver compiles for
    the *kind* algorithm over a fresh matrix, so what a driver or the
    service runs is what is checked."""

    def __init__(self, kind: str, m: int, n: int, b: int, tr: int, tree: TreeKind) -> None:
        self.name = f"{ALGORITHMS[kind].name.lower()}-{tree.value}-{m}x{n}"
        self.kind, self.m, self.n, self.b, self.tr, self.tree = kind, m, n, b, tr, tree

    def build(self) -> tuple[TaskGraph, Callable[[], list[np.ndarray]]]:
        """A fresh graph and its ``collect()``: the outputs a run left
        (:func:`~repro.verify.equivalence.state_arrays`, the factored
        matrix first)."""
        alg = ALGORITHMS[self.kind]
        A = np.random.default_rng(_MATRIX_SEED).standard_normal((self.m, self.n))
        plan = compile(alg, A, b=self.b, tr=self.tr, tree=self.tree, guards=False)
        return plan.program.graph, lambda: state_arrays(plan.A, plan.state)


def default_targets() -> list[Target]:
    return [
        Target(kind, m, n, b, tr, tree)
        for tree in (TreeKind.BINARY, TreeKind.FLAT)
        for m, n, b, tr in ((48, 48, 8, 4), (40, 24, 8, 3))
        for kind in ALGORITHMS
    ]


def verify_graph(target: Target, *, fuzz_runs: int = 3, seed: int = 0) -> Report:
    """Sanitize one build of *target* and fuzz *fuzz_runs* more."""
    report = Report(target.name)
    graph, collect = target.build()
    report.extend("sanitize", sanitize_footprints(graph, collect()[0], target.b))
    if fuzz_runs > 0:
        report.extend("fuzz", fuzz_schedules(target.build, runs=fuzz_runs, seed=seed))
    return report


def self_test(verbose: bool = False) -> int:
    """Verify the verifier; returns a process exit code (0 = detected).

    The sanitizer must catch a write outside the declared set: one
    numeric gemm task's first matrix block is hidden from its footprint.
    """
    target = Target("lu", 48, 48, 8, 4, TreeKind.BINARY)
    graph, collect = target.build()
    task = next(
        t
        for t in graph.tasks
        if t.fn is not None and t.cost.kernel == "gemm" and any(map(is_matrix_block, t.writes))
    )
    hidden = min(filter(is_matrix_block, task.writes), key=repr)
    task.meta["writes"] = task.writes - {hidden}
    hits = [
        f
        for f in sanitize_footprints(graph, collect()[0], target.b)
        if f.rule == "footprint" and f.tasks == (task.tid,) and f.block == hidden
    ]
    if not hits:
        print(
            f"self-test FAIL: hid write block {hidden} from task #{task.tid} "
            f"{task.name!r} but the sanitizer did not flag it"
        )
        return 1
    if verbose:
        print(f"self-test: hid block {hidden} from task #{task.tid}; sanitizer reported:")
        print(f"  {hits[0]}")
    print(f"self-test ok: misdeclared footprint (task #{task.tid}, block {hidden}) detected")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Sanitize and fuzz the CALU/CAQR graphs; check lock coverage.",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=3,
        metavar="N",
        help="random-schedule fuzz runs per graph (default 3; 0 disables)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the verifier via footprint and lock mutations",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for fuzzing")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print what each self-test mutant reported"
    )
    args = parser.parse_args(argv)

    if args.self_test:
        rc_graph = self_test(verbose=args.verbose)
        rc_locks = lock_self_test(verbose=args.verbose)
        return 1 if rc_graph or rc_locks else 0

    failed = 0
    sweep = (verify_graph(t, fuzz_runs=args.fuzz, seed=args.seed) for t in default_targets())
    for report in itertools.chain(sweep, [check_package()]):
        print(report.summary())
        for finding in report.findings:
            print(f"  {finding}")
        failed += not report.ok
    if failed:
        print(f"FAILED: {failed} report(s) with findings")
        return 1
    print("all footprints honest and schedules bitwise-stable; executor lock coverage ok")
    return 0
