"""CALU's update grain: tasks no smaller than the runtime can pay for.

``repro.core.calu.MIN_TASK_FLOPS`` stacks the panel's row chunks below
the pivot block into L/S row ranges, and groups the block columns behind
the look-ahead one into U/S segments, until each carries that much S
work.  These tests pin what the rule keeps (the look-ahead column, the
factors, the graphs whose tiles already clear it, the guards) and what
it buys (the task count on small tiles), and that a grouped segment's
footprint names every column it writes (CAQR's too).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.calu as calu_module
from repro.core import panelloop
from repro.core.calu import MIN_TASK_FLOPS, calu, calu_program
from repro.core.caqr import CAQRFactorization, caqr_program
from repro.core.layout import BlockLayout
from repro.core.priorities import task_priority
from repro.core.trees import TreeKind
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from repro.verify.sanitize import fuzz_schedules, sanitize_footprints
from tests.core import test_golden_graphs as golden


#: ``(m, n, b, tr)`` whose tiles are below the constant somewhere.
SMALL = [(256, 256, 16, 2), (100, 70, 16, 4), (48, 80, 16, 3)]

#: The golden-graph CRCs of the LU keys the grain rule moved, as
#: recorded before it: one (row chunk, block column) per task.
PRE_GRAIN = {
    "lu-256x256b16tr2-binary-numeric-plain": 4278291408,
    "lu-256x256b16tr2-binary-symbolic-plain": 3803644955,
    "lu-256x256b16tr2-flat-numeric-plain": 4278291408,
    "lu-256x256b16tr2-flat-symbolic-plain": 3803644955,
    "lu-48x80b16tr3-binary-numeric-plain": 783542631,
    "lu-48x80b16tr3-binary-symbolic-plain": 3016865585,
    "lu-48x80b16tr3-flat-numeric-plain": 3917595208,
    "lu-48x80b16tr3-flat-symbolic-plain": 2530886931,
    "lu-100x70b16tr4-binary-numeric-plain": 336245746,
    "lu-100x70b16tr4-binary-symbolic-plain": 3628589218,
    "lu-100x70b16tr4-flat-numeric-plain": 3928656978,
    "lu-100x70b16tr4-flat-symbolic-plain": 1584414858,
    "lu-256x256b16tr2-binary-numeric-abft": 1060663367,
    "lu-100x70b16tr4-binary-numeric-abft": 3569706118,
    "lu-256x256b16tr2-binary-numeric-noguards": 339171848,
    "lu-100x70b16tr4-binary-numeric-noguards": 2159700052,
    "lu-256x256b16tr2-binary-numeric-lookahead0": 1504358910,
    "lu-100x70b16tr4-binary-numeric-lookahead0": 3605468096,
    "lu-256x256b16tr2-binary-numeric-lookahead2": 2810151763,
    "lu-100x70b16tr4-binary-numeric-lookahead2": 4247963359,
    "lu-256x256b16tr2-binary-numeric-mkl_updates": 609666100,
    "lu-100x70b16tr4-binary-numeric-mkl_updates": 2370745728,
    "lu-256x256b16tr2-binary-numeric-checkpoint": 2868984898,
    "lu-100x70b16tr4-binary-numeric-checkpoint": 1032567128,
}


def _graph(m, n, b, tr, *, numeric=True, **build):
    A = np.random.default_rng(m * n + b).standard_normal((m, n)) if numeric else None
    return calu_program(BlockLayout(m, n, b), tr, A=A, **build)[0].materialize()


def _payload(task) -> dict:
    return task.fn.args[0][1]  # a numeric task's body: partial(run_op, (opname, payload))


@pytest.mark.parametrize("shape", SMALL + [(2560, 128, 32, 8)], ids=str)
@pytest.mark.parametrize("lookahead", [1, 2])
def test_the_lookahead_segments_stay_one_block_column_with_the_boost(shape, lookahead):
    m, n, b, tr = shape
    layout = BlockLayout(m, n, b)
    graph = _graph(m, n, b, tr, lookahead=lookahead)
    updates = [t for t in graph.tasks if t.kind.value in "US" and t.name != "leftswaps"]
    for K in range(layout.n_panels):
        for J in range(K + 1, min(K + lookahead, layout.N - 1) + 1):
            tasks = [t for t in updates if t.iteration == K and t.meta["col"] == J]
            below = m > K * b + layout.panel_width(K)  # else no S: a wide matrix's last panel
            assert {t.kind.value for t in tasks} == ({"U", "S"} if below else {"U"}), (K, J)
            for t in tasks:
                assert {Jc for _, Jc in t.writes} == {J}, t.name
                boosted = task_priority(t.kind.value, K, J, lookahead=lookahead, n_cols=layout.N)
                assert t.priority == boosted == task_priority(t.kind.value, K, K + 1), t.name


def test_lu_square_is_at_most_160_tasks():
    graph = _graph(256, 256, 16, 2)
    assert len(graph.tasks) <= 160
    # One L/S row range per panel: the two chunks below the pivot block stack.
    assert all(sum(t.name.startswith(f"L[{K}]") for t in graph.tasks) == 1 for K in range(15))


@pytest.mark.parametrize("shape", SMALL + [(1000, 200, 16, 8), (2560, 128, 32, 8)], ids=str)
@pytest.mark.parametrize("lookahead", [0, 1])
def test_each_stacked_or_grouped_task_carries_the_constant(shape, lookahead):
    m, n, b, tr = shape
    layout = BlockLayout(m, n, b)
    graph = _graph(m, n, b, tr, lookahead=lookahead)
    for K in range(layout.n_panels):
        k0, bk = K * b, layout.panel_width(K)
        below = m - k0 - bk  # rows below the pivot block
        window = K + lookahead
        rest = (window + 1) * b  # the first column behind the look-ahead window
        mine = [t for t in graph.tasks if t.iteration == K and t.kind.value in "LUS"]
        for t in mine:
            p = _payload(t)
            if k0 + bk < n and t.kind.value in "LS":
                rows = p["r1"] - p["r0"]
                assert 2 * rows * bk * b >= MIN_TASK_FLOPS or rows == below, t.name
            if t.kind.value in "US" and t.meta["col"] > window:
                cols = p["j1"] - p["j0"]
                whole = p["j0"] == max(rest, k0 + bk) and p["j1"] == n
                assert 2 * below * bk * cols >= MIN_TASK_FLOPS or whole, t.name


@pytest.mark.parametrize(
    "kind, shape, tree, count",
    [
        ("lu", (2560, 128, 32, 8), TreeKind.BINARY, 151),  # lu_tall
        ("qr", (2560, 128, 32, 8), TreeKind.FLAT, 90),  # qr_tall
        ("lu", (320, 320, 64, 2), TreeKind.BINARY, 55),  # svc_solve
    ],
    ids=["lu_tall", "qr_tall", "svc_solve"],
)
def test_benchmark_graphs_keep_their_task_counts(kind, shape, tree, count, monkeypatch):
    m, n, b, tr = shape
    program = golden.PROGRAMS[kind](BlockLayout(m, n, b), tr, tree)[0]
    assert len(program.materialize().tasks) == count
    if kind == "lu":  # task for task: the constant changes nothing here
        monkeypatch.setattr(calu_module, "MIN_TASK_FLOPS", 0)
        ungrained = calu_program(BlockLayout(m, n, b), tr, tree)[0]
        assert golden._program_digest(program, 1) == golden._program_digest(ungrained, 1)


@pytest.mark.parametrize(
    "m, n, tr",
    [(100_000, 1000, 1), (100_000, 1000, 8)]  # fig3_fig4
    + [(n, n, tr) for n in (1000, 2000) for tr in (1, 2, 4, 8)],  # table1
    ids=str,
)
def test_paper_scale_graphs_keep_their_shape(m, n, tr, monkeypatch):
    layout = BlockLayout(m, n, 100)
    grained = golden._program_digest(calu_program(layout, tr)[0], 1)
    monkeypatch.setattr(calu_module, "MIN_TASK_FLOPS", 0)
    assert grained == golden._program_digest(calu_program(layout, tr)[0], 1)


@pytest.mark.parametrize("shape", SMALL, ids=str)
def test_sanitized_and_schedule_independent(shape):
    m, n, b, tr = shape
    A = np.random.default_rng(5).standard_normal((m, n))
    graph = calu_program(BlockLayout(m, n, b), tr, A=A, guards=False)[0].materialize()
    assert sanitize_footprints(graph, A, b) == []

    def build():
        A = np.random.default_rng(5).standard_normal((m, n))
        program, wss = calu_program(BlockLayout(m, n, b), tr, A=A, guards=False)
        graph = program.materialize()
        return graph, lambda: [A] + [np.asarray(ws.piv) for ws in wss]

    assert fuzz_schedules(build, runs=3, seed=7) == []


def test_with_the_constant_at_zero_every_lu_graph_is_the_old_one(monkeypatch):
    monkeypatch.setattr(calu_module, "MIN_TASK_FLOPS", 0)
    recorded = json.loads(golden.GOLDEN.read_text())
    lu = [case for case in golden.CASES if case[0] == "lu"]
    assert set(PRE_GRAIN) <= {golden.case_id(case) for case in lu}
    for case in lu:
        key = golden.case_id(case)
        assert golden.digest(case) == PRE_GRAIN.get(key, recorded[key]), key


class _PoisonedPanel(FaultPlan):
    """Poison the first leaf's candidate slot and then a row of the
    panel: the tournament replay finds the panel non-finite, and the
    finalize fails the run."""

    def __init__(self) -> None:
        super().__init__(0, max_faults=1)

    def decide(self, task, attempt: int = 0) -> dict:
        return {"corrupt": True} if task.name == "P[0]leaf0" and attempt == 0 else {}

    def post_task(self, task, attempt: int = 0, record=None) -> bool:
        hit = super().post_task(task, attempt, record)
        if hit:
            self.target[40, 3] = np.nan  # the plan's working matrix, chunk 2 of panel 0
        return hit


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_poisoned_panel_row_under_stacked_tasks_is_a_health_failure(backend):
    graph = _graph(48, 48, 8, 4, numeric=False)
    assert [t.name for t in graph.tasks if t.iteration == 0 and t.kind.value == "L"] == ["L[0]0"]
    A0 = np.random.default_rng(0).standard_normal((48, 48))
    plan = _PoisonedPanel()
    if backend == "serial":
        ex = ThreadedExecutor(1, fault_plan=plan)
    else:
        ex = ProcessExecutor(2, fault_plan=plan)
    try:
        with pytest.raises(RuntimeFailure) as err:
            calu(A0, b=8, tr=4, executor=ex)
    finally:
        if backend == "process":
            ex.close()
    assert err.value.failure_kind == "health"
    if backend == "serial":  # one lane: the report is deterministic
        assert err.value.task == "F[0]"
    assert [ev.task for ev in plan.injected] == ["P[0]leaf0"]


def _grouped_caqr(monkeypatch):
    """CAQR with every two block columns one segment (no builder groups
    CAQR's segments, so the test does it under the panel loop)."""
    segments = panelloop.trailing_segments

    def two_columns(layout, K, *_, **__):
        return segments(layout, K, 2 * layout.b)

    monkeypatch.setattr(panelloop, "trailing_segments", two_columns)

    def build(m=100, n=70, b=16, tr=4):
        A = np.random.default_rng(3).standard_normal((m, n))
        program, stores = caqr_program(BlockLayout(m, n, b), tr, A=A, guards=False)
        return A, program, stores

    return build


def test_grouped_caqr_segments_declare_every_column(monkeypatch):
    build = _grouped_caqr(monkeypatch)
    A, program, _ = build()
    graph = program.materialize()
    grouped = [t for t in graph.tasks if t.kind.value == "S" and len({J for _, J in t.writes}) > 1]
    assert grouped
    assert sanitize_footprints(graph, A, 16) == []

    def fresh():
        A, program, _ = build()
        return program.materialize(), lambda: [A]

    assert fuzz_schedules(fresh, runs=4, seed=3) == []


def test_grouped_caqr_is_right_on_threads(monkeypatch):
    build = _grouped_caqr(monkeypatch)
    A, program, stores = build()
    A0 = A.copy()
    program.materialize().run_sequential()
    for _ in range(3):
        B, threaded, threaded_stores = build()
        ThreadedExecutor(2).run(threaded)
        assert np.array_equal(A, B)
    f = CAQRFactorization(packed=B, panels=threaded_stores, b=16, tr=4, tree=TreeKind.FLAT)
    assert np.linalg.norm(f.reconstruct() - A0) <= 1e-13 * np.linalg.norm(A0)
