"""``python -m repro.verify`` — run all verification passes.

Default target matrix: CALU and CAQR graphs across binary and flat
reduction trees at two sizes each (numeric — static race proof, DAG
lint, dynamic footprint sanitizer, schedule fuzzer), two larger
symbolic CALU/CAQR graphs, and the four baseline graphs (static
passes only).  Exits nonzero when any graph has gating findings
(``error`` or ``warning``; ``info`` notes never gate).

``--self-test`` instead verifies the verifier: it drops a random
essential dependency edge from a CALU graph and asserts the race
detector reports exactly that task pair, then misdeclares a numeric
task's write footprint and asserts the sanitizer flags it.  Exits
nonzero when either injected defect goes *undetected*.

Both modes also cover the executor stack's own locks: the sweep runs
the LK005 lock-coverage pass (:mod:`repro.verify.lockcov`) over the
package, and ``--self-test`` runs its mutation self-test.
"""

from __future__ import annotations

import argparse
from typing import Callable

import numpy as np

from repro.baselines.lapack_lu import getrf_program
from repro.baselines.lapack_qr import geqrf_program
from repro.baselines.tiled_lu import tiled_lu_program
from repro.baselines.tiled_qr import tiled_qr_program
from repro.core.driver import ALGORITHMS, compile
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.runtime.graph import TaskGraph
from repro.verify.equivalence import state_arrays
from repro.verify.findings import Report
from repro.verify.lint import lint_graph
from repro.verify.lockcov import check_package, lock_self_test
from repro.verify.mutate import drop_edge, pick_droppable_edge
from repro.verify.races import check_races
from repro.verify.sanitize import fuzz_schedules, sanitize_footprints

__all__ = ["main", "verify_graph", "default_targets"]

_MATRIX_SEED = 20100419  # IPDPS 2010 — fixed so runs are reproducible


def _random_matrix(m: int, n: int, seed: int = _MATRIX_SEED) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


_Collect = Callable[[], "list[np.ndarray]"]
_Builder = Callable[[], "tuple[TaskGraph, _Collect | None]"]


def _numeric(kind: str, m: int, n: int, b: int, tr: int, tree: TreeKind) -> _Builder:
    """Builder of the graph the driver compiles for the *kind*
    algorithm over a fresh matrix: what a driver or the service runs is
    what is proved.

    Its ``collect()`` is :func:`~repro.verify.equivalence.state_arrays`.
    """

    def build() -> tuple[TaskGraph, _Collect]:
        alg, A = ALGORITHMS[kind], _random_matrix(m, n)
        kernel = alg.leaf_kernels[0]
        plan = compile(alg, A, b=b, tr=tr, tree=tree, leaf_kernel=kernel, guards=False)
        return plan.program.graph, lambda: state_arrays(plan.A, plan.state)

    return build


def _symbolic(kind: str, m: int, n: int, b: int, tr: int, tree: TreeKind) -> _Builder:
    return lambda: (ALGORITHMS[kind].program(BlockLayout(m, n, b), tr, tree)[0].materialize(), None)


class Target:
    """One graph to verify: a fresh graph builder plus dynamic-pass config.

    ``build`` returns ``(TaskGraph, collect)``.  A *numeric* target is
    given as its ``shape`` — ``(kind, m, n, b, tr, tree)`` — instead:
    its graph is that algorithm's compiled over a fresh matrix and the
    dynamic passes run.
    """

    def __init__(self, name: str, build: _Builder | None = None, *, shape: tuple | None = None):
        build = _numeric(*shape) if shape is not None else build
        assert build is not None
        self.name, self.build, self.shape = name, build, shape

    @property
    def numeric(self) -> bool:
        return self.shape is not None


def default_targets() -> list[Target]:
    targets: list[Target] = []
    for tree in (TreeKind.BINARY, TreeKind.FLAT):
        for m, n, b, tr in ((48, 48, 8, 4), (40, 24, 8, 3)):
            for kind, alg in ALGORITHMS.items():
                name = f"{alg.name.lower()}-{tree.value}-{m}x{n}"
                targets.append(Target(name, shape=(kind, m, n, b, tr, tree)))
    # Larger symbolic graphs: static proof scales past what we execute.
    for tree in (TreeKind.BINARY, TreeKind.FLAT):
        for kind, alg in ALGORITHMS.items():
            name = f"{alg.name.lower()}-{tree.value}-sym-256x128"
            targets.append(Target(name, _symbolic(kind, 256, 128, 16, 4, tree)))
    for name, program in (
        ("tiled-lu-sym-64x64", lambda: tiled_lu_program(64, 64, nb=16)),
        ("tiled-qr-sym-64x64", lambda: tiled_qr_program(64, 64, nb=16)),
        ("getrf-sym-128x128", lambda: getrf_program(128, 128, b=32)),
        ("geqrf-sym-128x128", lambda: geqrf_program(128, 128, b=32)),
    ):
        targets.append(Target(name, lambda program=program: (program().materialize(), None)))
    return targets


def verify_graph(
    graph: TaskGraph,
    *,
    A: np.ndarray | None = None,
    block: int | None = None,
    fuzz_build: Callable | None = None,
    fuzz_runs: int = 0,
    seed: int = 0,
    label: str | None = None,
) -> Report:
    """Run the verification passes over one graph; returns the report.

    Static passes (races, lint) always run.  The footprint sanitizer
    runs when ``A``/``block`` are given (and executes the graph); the
    schedule fuzzer runs when ``fuzz_build``/``fuzz_runs`` are given.
    ``label`` overrides the report's display name (default: graph name).
    """
    report = Report(label or graph.name)
    report.extend("races", check_races(graph))
    report.extend("lint", lint_graph(graph))
    if A is not None and block is not None:
        report.extend("sanitize", sanitize_footprints(graph, A, block))
    if fuzz_build is not None and fuzz_runs > 0:
        report.extend("fuzz", fuzz_schedules(fuzz_build, runs=fuzz_runs, seed=seed))
    return report


def _verify_target(target: Target, fuzz_runs: int, static_only: bool, seed: int) -> Report:
    graph, collect = target.build()
    if static_only or collect is None:
        return verify_graph(graph, label=target.name)
    return verify_graph(
        graph,
        A=collect()[0],  # the matrix the tasks factor in place
        block=target.shape[3],
        fuzz_build=target.build,
        fuzz_runs=fuzz_runs,
        seed=seed,
        label=target.name,
    )


def self_test(seed: int = 0, verbose: bool = False) -> int:
    """Verify the verifier; returns a process exit code (0 = all detected)."""
    failures = 0

    # 1. Edge-drop mutation: the race detector must name the dropped pair.
    graph = _symbolic("lu", 48, 48, 8, 4, TreeKind.BINARY)()[0]
    baseline = [f for f in check_races(graph) if f.severity == "error"]
    if baseline:
        print("self-test FAIL: pristine CALU graph already has race errors")
        failures += 1
    u, v = pick_droppable_edge(graph, seed=seed)
    mutant = drop_edge(graph, u, v)
    hits = [
        f
        for f in check_races(mutant)
        if f.rule == "race" and set(f.tasks) == {u, v}
    ]
    if hits:
        if verbose:
            print(f"self-test: dropped edge {u} -> {v}; detector reported:")
            print(f"  {hits[0]}")
        print(f"self-test ok: edge-drop mutation ({u} -> {v}) detected as a race")
    else:
        print(
            f"self-test FAIL: dropped conflict edge {u} -> {v} but the race "
            "detector did not report that pair"
        )
        failures += 1

    # 2. Misdeclared footprint: the sanitizer must catch a write outside
    # the declared set.
    graph, collect = _numeric("lu", 48, 48, 8, 4, TreeKind.BINARY)()
    A = collect()[0]
    victim = None
    for task in graph.tasks:
        blocks = sorted(
            (k for k in task.writes if isinstance(k, tuple) and len(k) == 2
             and all(isinstance(x, int) for x in k)),
            key=repr,
        )
        if task.fn is not None and task.cost.kernel == "gemm" and blocks:
            victim = (task, blocks[0])
            break
    if victim is None:
        print("self-test FAIL: no numeric gemm task with a matrix write footprint")
        return 1
    task, hidden = victim
    task.meta["writes"] = task.writes - {hidden}
    findings = sanitize_footprints(graph, A, 8)
    hits = [
        f
        for f in findings
        if f.rule == "footprint" and f.tasks == (task.tid,) and f.block == hidden
    ]
    if hits:
        if verbose:
            print(f"self-test: hid block {hidden} from task #{task.tid}; sanitizer reported:")
            print(f"  {hits[0]}")
        print(
            f"self-test ok: misdeclared footprint (task #{task.tid}, block {hidden}) detected"
        )
    else:
        print(
            f"self-test FAIL: hid write block {hidden} from task #{task.tid} "
            f"{task.name!r} but the sanitizer did not flag it"
        )
        failures += 1

    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Prove race-freedom and lint the CALU/CAQR/baseline task graphs.",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=3,
        metavar="N",
        help="random-schedule fuzz runs per numeric graph (default 3; 0 disables)",
    )
    parser.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic passes (no execution; races + lint only)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the verifier via edge-drop, footprint and lock mutations",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for fuzzing/mutation")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print info notes, not just gating findings"
    )
    args = parser.parse_args(argv)

    if args.self_test:
        rc_graph = self_test(seed=args.seed, verbose=args.verbose)
        rc_locks = lock_self_test(verbose=args.verbose)
        return 1 if rc_graph or rc_locks else 0

    failed = 0
    for target in default_targets():
        report = _verify_target(target, args.fuzz, args.static_only, args.seed)
        print(report.summary())
        shown = report.findings if args.verbose else report.gating
        for finding in shown:
            print(f"  {finding}")
        if not report.ok:
            failed += 1
    # The default sweep also checks the executor stack's lock coverage.
    locks = check_package()
    print(locks.summary())
    for finding in locks.findings:
        print(f"  {finding}")
    failed += not locks.ok
    if failed:
        print(f"FAILED: {failed} target(s) with gating findings")
        return 1
    print("all graphs race-free and lint-clean; executor lock coverage ok")
    return 0
