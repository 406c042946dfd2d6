"""Graph programs materialize deterministically, and every executor
runs them to the factors of a sequential run.

* **structural** — two builds of ``*_program(...).materialize()`` agree
  task-for-task (names, kinds, costs, priorities, footprints) and
  edge-for-edge, and the windows partition the graph;
* **behavioral** — factorizations driven through the engine executors
  (threaded, simulated-execute, and the shared-memory
  process backend) reproduce a duck-typed sequential run of the same
  graph **bitwise**: same pivots, same packed factors, for CALU and
  CAQR across binary and flat reduction trees and all look-ahead
  depths (a priority rule, so the factors cannot depend on it).
"""

import numpy as np
import pytest

from repro.baselines.lapack_lu import getrf_program
from repro.baselines.lapack_qr import geqrf_program
from repro.baselines.tiled_lu import tiled_lu_program
from repro.baselines.tiled_qr import tiled_qr_program
from repro.core.calu import calu_program, calu
from repro.core.caqr import caqr_program, caqr
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.trace import Trace
from repro.verify.equivalence import compare_graphs
from tests.conftest import make_rng

TREES = [TreeKind.BINARY, TreeKind.FLAT]


class EagerSequential:
    """Duck-typed executor: runs the plan's graph in task order."""

    def run(self, graph, journal=None):
        assert hasattr(graph, "tasks"), "duck-typed executors must get eager graphs"
        graph.run_sequential()
        return Trace([], 1)


def assert_equivalent(streamed, eager):
    findings = compare_graphs(streamed, eager)
    assert not findings, "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# Structural: two builds of a program materialize to one graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_calu_program_materializes_to_eager_graph(tree):
    layout = BlockLayout(96, 64, 16)
    streamed = calu_program(layout, 4, tree)[0].materialize()
    eager = calu_program(layout, 4, tree)[0].materialize()
    assert_equivalent(streamed, eager)


@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_caqr_program_materializes_to_eager_graph(tree):
    layout = BlockLayout(96, 64, 16)
    streamed = caqr_program(layout, 4, tree)[0].materialize()
    eager = caqr_program(layout, 4, tree)[0].materialize()
    assert_equivalent(streamed, eager)


def test_numeric_calu_program_matches_eager_graph():
    A = make_rng(11).standard_normal((48, 48))
    layout = BlockLayout(48, 48, 8)
    streamed = calu_program(layout, 4, TreeKind.BINARY, A=A.copy(), guards=False)[0]
    eager = calu_program(layout, 4, TreeKind.BINARY, A=A.copy(), guards=False)[0].materialize()
    assert_equivalent(streamed.materialize(), eager)


@pytest.mark.parametrize(
    "make_program,make_eager",
    [
        pytest.param(
            lambda: getrf_program(128, 128, b=32),
            lambda: getrf_program(128, 128, b=32).materialize(),
            id="getrf",
        ),
        pytest.param(
            lambda: geqrf_program(128, 128, b=32),
            lambda: geqrf_program(128, 128, b=32).materialize(),
            id="geqrf",
        ),
        pytest.param(
            lambda: tiled_lu_program(96, 96, nb=16),
            lambda: tiled_lu_program(96, 96, nb=16).materialize(),
            id="tiled-lu",
        ),
        pytest.param(
            lambda: tiled_qr_program(96, 96, nb=16),
            lambda: tiled_qr_program(96, 96, nb=16).materialize(),
            id="tiled-qr",
        ),
    ],
)
def test_baseline_programs_materialize_identically(make_program, make_eager):
    assert_equivalent(make_program().materialize(), make_eager())


def test_tslu_tsqr_programs_are_deterministic():
    # A standalone panel is the full builder over the one-panel layout.
    A = make_rng(7).standard_normal((64, 16))
    panel = BlockLayout(64, 16, 16)
    p1, _ = calu_program(panel, 4, A=A.copy())
    p2, _ = calu_program(panel, 4, A=A.copy())
    assert p1.n_windows == 1  # tournament + L solves, no left-swap epilogue
    assert_equivalent(p1.materialize(), p2.materialize())
    q1, _ = caqr_program(panel, 4, A=A.copy())
    q2, _ = caqr_program(panel, 4, A=A.copy())
    assert q1.n_windows == 1
    assert_equivalent(q1.materialize(), q2.materialize())


def test_windows_partition_the_graph():
    layout = BlockLayout(96, 64, 16)
    program, _ = calu_program(layout, 4, TreeKind.BINARY)
    program.materialize()
    # Windows tile [0, n_tasks) without gaps or overlaps, in order.
    expect = 0
    for start, end in program.windows:
        assert start == expect and end >= start
        expect = end
    assert expect == len(program.graph.tasks)
    # One window per panel plus the left-swap epilogue.
    assert program.n_windows == layout.n_panels + 1


# ---------------------------------------------------------------------------
# Behavioral: executor runs reproduce the sequential run bitwise
# ---------------------------------------------------------------------------

EXECUTORS = [
    pytest.param(lambda: ThreadedExecutor(3), id="threaded"),
    pytest.param(lambda: ProcessExecutor(3), id="process"),
]


@pytest.mark.parametrize("make_executor", EXECUTORS)
@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_calu_streamed_matches_eager_bitwise(tree, make_executor):
    A = make_rng(42).standard_normal((72, 48))
    ref = calu(A, b=12, tr=4, tree=tree, executor=EagerSequential())
    f = calu(A, b=12, tr=4, tree=tree, executor=make_executor())
    np.testing.assert_array_equal(f.piv, ref.piv)
    np.testing.assert_array_equal(f.lu, ref.lu)


@pytest.mark.parametrize("make_executor", EXECUTORS)
@pytest.mark.parametrize("tree", TREES, ids=[t.value for t in TREES])
def test_caqr_streamed_matches_eager_bitwise(tree, make_executor):
    A = make_rng(43).standard_normal((72, 48))
    ref = caqr(A, b=12, tr=4, tree=tree, executor=EagerSequential())
    f = caqr(A, b=12, tr=4, tree=tree, executor=make_executor())
    np.testing.assert_array_equal(f.packed, ref.packed)
    rhs = make_rng(44).standard_normal(72)
    np.testing.assert_array_equal(f.apply_qt(rhs), ref.apply_qt(rhs))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_lookahead_depth_does_not_change_factors(depth):
    A = make_rng(45).standard_normal((64, 64))
    ref = calu(A, b=16, tr=4, executor=EagerSequential())
    f = calu(A, b=16, tr=4, lookahead=depth)
    np.testing.assert_array_equal(f.piv, ref.piv)
    np.testing.assert_array_equal(f.lu, ref.lu)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_default_lookahead_depth_drives_streaming(depth):
    A = make_rng(46).standard_normal((60, 40))
    f = calu(A, b=10, tr=3, lookahead=depth)
    ref = calu(A, b=10, tr=3, executor=EagerSequential())
    np.testing.assert_array_equal(f.piv, ref.piv)
    np.testing.assert_array_equal(f.lu, ref.lu)
