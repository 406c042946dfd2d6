"""Unit tests for streaming graph programs and their engine consumption.

Covers the :class:`~repro.runtime.program.GraphProgram` contract
(ordered window emission, tid ranges, idempotent ``emit_through``,
materialization, eager-graph wrapping) and the streaming behavior the
engine layers on top: bounded live-task working set under a finite
look-ahead and run statistics in the trace.
"""

import pytest

from repro.core.priorities import lookahead_depth
from repro.machine.presets import generic
from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram, as_program, supports_streaming
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.stealing import WorkStealingExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor


def chain_program(n: int = 6, lookahead: int | None = 0):
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

    return GraphProgram("chain", n, emit, lookahead=lookahead), order


def test_emit_next_records_ordered_windows():
    program, _ = chain_program(3)
    assert program.emitted == 0 and not program.exhausted
    first = program.emit_next()
    assert [t.name for t in first] == ["t0"]
    assert program.windows == [(0, 1)]
    program.emit_next()
    program.emit_next()
    assert program.windows == [(0, 1), (1, 2), (2, 3)]
    assert program.exhausted
    assert program.emit_seconds > 0.0
    # Incremental emission discovered the chain edges.
    assert program.graph.preds == [[], [0], [1]]


def test_emit_next_after_exhaustion_raises():
    program, _ = chain_program(1)
    program.emit_next()
    with pytest.raises(ValueError, match="all 1 windows emitted"):
        program.emit_next()


def test_emit_through_is_idempotent_and_clamps():
    program, _ = chain_program(4)
    program.emit_through(1)
    assert program.emitted == 2
    program.emit_through(1)
    assert program.emitted == 2
    program.emit_through(99)  # clamps at n_windows
    assert program.exhausted and len(program.graph.tasks) == 4


def test_materialize_matches_incremental_emission():
    eager, _ = chain_program(5)
    graph = eager.materialize()
    stepped, _ = chain_program(5)
    while not stepped.exhausted:
        stepped.emit_next()
    assert [t.name for t in graph.tasks] == [t.name for t in stepped.graph.tasks]
    assert graph.preds == stepped.graph.preds
    assert len(graph.tasks) == 5


def test_negative_window_count_rejected():
    with pytest.raises(ValueError, match="n_windows"):
        GraphProgram("bad", -1, lambda w, g, t: None)


def test_from_graph_wraps_eager_graph():
    g = TaskGraph("pre")
    g.add("only", TaskKind.P, Cost("getf2"))
    program = GraphProgram.from_graph(g)
    assert program.graph is g
    assert program.exhausted and program.windows == [(0, 1)]
    assert program.lookahead == -1
    assert program.name == "pre"


def test_as_program_coercion():
    g = TaskGraph("g")
    program = as_program(g)
    assert isinstance(program, GraphProgram) and program.graph is g
    assert as_program(program) is program
    with pytest.raises(TypeError, match="expected a TaskGraph or GraphProgram"):
        as_program(42)


def test_supports_streaming_only_engine_backends():
    assert supports_streaming(ExecutionEngine(1))
    assert supports_streaming(ThreadedExecutor(1))
    assert supports_streaming(WorkStealingExecutor(1))
    assert supports_streaming(SimulatedExecutor(generic(1)))

    class DuckTyped:
        def run(self, graph):  # pragma: no cover - never called
            return None

    assert not supports_streaming(DuckTyped())


def test_lookahead_depth_get_set_restore():
    prev = lookahead_depth(2)
    try:
        assert lookahead_depth() == 2
        assert lookahead_depth(0) == 2
        assert lookahead_depth() == 0
    finally:
        lookahead_depth(prev)
    assert lookahead_depth() == prev
    with pytest.raises(ValueError, match=">= -1"):
        lookahead_depth(-2)
    with pytest.raises(TypeError):
        lookahead_depth(1.5)
    with pytest.raises(TypeError):
        lookahead_depth(True)


@pytest.mark.parametrize(
    "make_executor",
    [
        pytest.param(lambda: ThreadedExecutor(2), id="threaded"),
        pytest.param(lambda: WorkStealingExecutor(2), id="stealing"),
    ],
)
def test_streamed_chain_runs_in_order_with_bounded_window(make_executor):
    program, order = chain_program(8, lookahead=0)
    trace = make_executor().run(program)
    assert order == list(range(8))
    stats = trace.stats
    assert stats["n_tasks"] == 8
    assert stats["windows_emitted"] == stats["n_windows"] == 8
    # With lookahead 0 the engine keeps at most windows W and W+1 live:
    # the chain never has more than 2 unfinished tasks in the graph.
    assert stats["peak_live_tasks"] <= 2
    assert stats["emit_seconds"] > 0.0


def test_streamed_chain_virtual_clock():
    program, _ = chain_program(5, lookahead=1)
    trace = SimulatedExecutor(generic(2)).run(program)
    assert len(trace.records) == 5
    assert trace.stats["windows_emitted"] == 5
    assert trace.stats["peak_live_tasks"] <= 3


def test_eager_graph_through_engine_reports_single_window():
    g = TaskGraph("eager")
    g.add("a", TaskKind.P, Cost("getf2"))
    g.add("b", TaskKind.S, Cost("gemm"), deps=[0])
    trace = ThreadedExecutor(1).run(g)
    assert trace.stats["n_windows"] == 1
    assert trace.stats["n_tasks"] == 2


def test_infinite_lookahead_emits_everything_up_front():
    program, order = chain_program(6, lookahead=-1)
    trace = ThreadedExecutor(2).run(program)
    assert order == list(range(6))
    # All windows were emitted before anything completed.
    assert trace.stats["peak_live_tasks"] == 6
