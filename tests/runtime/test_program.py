"""Unit tests for graph programs and their engine consumption.

Covers the :class:`~repro.runtime.program.GraphProgram` contract
(ordered window emission, tid ranges, idempotent materialization) and
what the executors do with a program: run it whole, materialized on
entry, every task live from the start.
"""

import numpy as np
import pytest

from repro.core.calu import calu, calu_program, panel_verdicts
from repro.core.layout import BlockLayout
from repro.machine.presets import generic
from repro.runtime.graph import TaskGraph
from repro.runtime.process import ProcessExecutor
from repro.runtime.program import GraphProgram
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import make_rng


def chain_program(n: int = 6):
    """One task per window, all serialized through a single block."""
    order: list[int] = []

    def emit(w, graph, tracker):
        def fn(w=w):
            order.append(w)

        tracker.add_task(
            graph,
            f"t{w}",
            TaskKind.S,
            Cost("gemm", flops=1.0),
            fn=fn,
            reads=[("x",)] if w else [],
            writes=[("x",)],
            iteration=w,
        )

    return GraphProgram("chain", n, emit), order


def test_materialize_records_ordered_windows():
    program, _ = chain_program(3)
    assert len(program) == 0 and program.windows == []
    graph = program.materialize()
    assert [t.name for t in graph.tasks] == ["t0", "t1", "t2"]
    assert program.windows == [(0, 1), (1, 2), (2, 3)]
    assert len(program) == 3 and program.emit_seconds > 0.0
    # Window-by-window emission discovered the chain edges.
    assert graph.preds == [[], [0], [1]]


def test_materialize_is_idempotent():
    program, _ = chain_program(4)
    graph = program.materialize()
    emit_seconds = program.emit_seconds
    assert program.materialize() is graph
    assert len(graph.tasks) == 4 and len(program.windows) == program.n_windows
    assert program.emit_seconds == emit_seconds  # nothing left to emit


def test_materialize_matches_incremental_emission():
    eager, _ = chain_program(5)
    graph = eager.materialize()
    twin, _ = chain_program(5)
    assert [t.name for t in graph.tasks] == [t.name for t in twin.materialize().tasks]
    assert graph.preds == twin.graph.preds
    assert len(graph.tasks) == 5


def test_negative_window_count_rejected():
    with pytest.raises(ValueError, match="n_windows"):
        GraphProgram("bad", -1, lambda w, g, t: None)


@pytest.mark.parametrize(
    "make_executor",
    [
        pytest.param(lambda: ThreadedExecutor(2), id="threaded"),
    ],
)
def test_unmaterialized_program_runs_in_order(make_executor):
    program, order = chain_program(8)
    trace = make_executor().run(program)
    assert order == list(range(8))
    assert len(program.windows) == program.n_windows == 8  # materialized on entry
    stats = trace.stats
    assert stats["n_tasks"] == stats["peak_live_tasks"] == 8
    assert "emit_seconds" not in stats  # a run emits nothing; a plan reports its compile's


def test_unmaterialized_program_on_the_virtual_clock():
    program, _ = chain_program(5)
    trace = SimulatedExecutor(generic(2)).run(program)
    assert len(trace.records) == 5
    assert trace.stats["peak_live_tasks"] == 5


def test_eager_graph_through_engine_reports_its_tasks():
    g = TaskGraph("eager")
    g.add("a", TaskKind.P, Cost("getf2"))
    g.add("b", TaskKind.S, Cost("gemm"), deps=[0])
    trace = ThreadedExecutor(1).run(g)
    assert trace.stats == {"n_tasks": 2, "peak_live_tasks": 2, "skipped": 0}


@pytest.mark.parametrize(
    "make_executor",
    [
        pytest.param(lambda: ThreadedExecutor(2), id="threaded"),
        pytest.param(lambda: ProcessExecutor(2), id="process"),
    ],
)
def test_unmaterialized_calu_program_gives_the_drivers_factors(make_executor):
    A = make_rng(21).standard_normal((64, 48))
    want = calu(A, b=8, tr=2)
    LU, layout = A.copy(), BlockLayout(64, 48, 8)
    program, panels = calu_program(layout, 2, A=LU)
    executor = make_executor()
    try:
        trace = executor.run(program)
    finally:
        if isinstance(executor, ProcessExecutor):
            executor.close()
    assert trace.stats["peak_live_tasks"] == trace.stats["n_tasks"] == len(program)
    np.testing.assert_array_equal(LU, want.lu)
    np.testing.assert_array_equal(panel_verdicts(layout, panels)[0], want.piv)
