"""Tests for parameter heuristics, input validation and trace exports."""

import json

import numpy as np
import pytest

from repro.core import driver
from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.outofcore import tslu_ooc, tsqr_ooc
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.linalg import lstsq, solve
from repro.machine.autotune import recommend_params
from repro.runtime.tilestore import TileStore
from tests.conftest import make_rng


class TestRecommendParams:
    def test_tall_skinny_uses_all_cores(self):
        rec = recommend_params(1_000_000, 500, cores=8)
        assert rec.tr == 8
        assert rec.b == 100
        assert "tall-skinny" in rec.rationale

    def test_large_square_small_tr(self):
        rec = recommend_params(10_000, 10_000, cores=8)
        assert rec.tr == 2  # the paper's Table I optimum at 10^4

    def test_moderate_square(self):
        rec = recommend_params(2000, 2000, cores=8)
        assert 1 <= rec.tr <= 8

    def test_narrow_matrix_caps_b(self):
        assert recommend_params(500, 40, cores=4).b == 40

    def test_qr_gets_flat_tree(self):
        assert recommend_params(100_000, 100, kind="qr").tree is TreeKind.FLAT
        assert recommend_params(100_000, 100, kind="lu").tree is TreeKind.BINARY

    def test_tr_never_exceeds_chunkable_rows(self):
        rec = recommend_params(300, 100, cores=16)
        assert rec.tr <= 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommend_params(0, 5)
        with pytest.raises(ValueError):
            recommend_params(5, 5, kind="cholesky")

    def test_solve_uses_heuristics(self):
        A = make_rng(0).standard_normal((150, 150))
        rhs = make_rng(1).standard_normal(150)
        x = solve(A, rhs)  # no explicit parameters
        np.testing.assert_allclose(A @ x, rhs, rtol=1e-8, atol=1e-9)

    def test_lstsq_uses_heuristics(self):
        A = make_rng(2).standard_normal((400, 30))
        x0 = make_rng(3).standard_normal(30)
        x = lstsq(A, A @ x0)
        np.testing.assert_allclose(x, x0, rtol=1e-8, atol=1e-10)


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_calu_rejects_nonfinite(self, bad):
        A = make_rng(4).standard_normal((20, 20))
        A[3, 7] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            calu(A, b=5, tr=2)

    def test_caqr_rejects_nonfinite(self):
        A = make_rng(5).standard_normal((20, 10))
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            caqr(A, b=5, tr=2)

    def test_tslu_tsqr_reject_nonfinite(self):
        A = make_rng(6).standard_normal((30, 5))
        A[-1, -1] = np.inf
        with pytest.raises(ValueError):
            tslu(A, tr=2)
        with pytest.raises(ValueError):
            tsqr(A, tr=2)

    def test_opt_out(self):
        """There is none: ``check_finite=`` is no keyword, and a NaN is
        refused with no hint of one."""
        A = make_rng(7).standard_normal((20, 20))
        A[0, 0] = np.nan
        with pytest.raises(TypeError):
            calu(A, b=5, tr=2, check_finite=False)
        with pytest.raises(ValueError, match=r"NaN or Inf entries$"):
            calu(A, b=5, tr=2)

    @pytest.mark.parametrize("name", ["calu", "caqr", "tsqr", "tslu", "tsqr_ooc", "tslu_ooc"])
    def test_a_nan_is_refused_before_anything_is_staged(self, name, monkeypatch):
        """Every driver refuses non-finite input; none has an opt-out.
        The in-memory drivers check the whole matrix before staging it;
        the out-of-core ones check each window before storing it, so a
        NaN in the first window stores nothing."""

        def staging(*args, **kwargs):
            raise AssertionError("staged a non-finite matrix")

        monkeypatch.setattr(driver, "staged", staging)
        monkeypatch.setattr(TileStore, "store", staging)
        A = make_rng(8).standard_normal((40, 8))
        A[0, 3] = np.nan
        run = {
            "calu": lambda: calu(A, b=4, tr=2),
            "caqr": lambda: caqr(A, b=4, tr=2),
            "tsqr": lambda: tsqr(A, tr=2),
            "tslu": lambda: tslu(A, tr=2),
            "tsqr_ooc": lambda: tsqr_ooc(A, tr=2),
            "tslu_ooc": lambda: tslu_ooc(A, tr=2),
        }[name]
        with pytest.raises(ValueError, match="NaN or Inf|non-finite"):
            run()


class TestChromeTracing:
    def test_export_structure(self):
        from repro.core.calu import calu_program
        from repro.core.layout import BlockLayout
        from repro.machine.presets import generic
        from repro.runtime.simulated import SimulatedExecutor

        graph = calu_program(BlockLayout(400, 200, 100), 2)[0].materialize()
        trace = SimulatedExecutor(generic(4)).run(graph)
        doc = json.loads(trace.to_chrome_tracing())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(events) == len(graph.tasks)
        assert len(metas) == 4
        assert all(e["dur"] >= 0 for e in events)
        assert all(e["cat"] in "PLUSX" for e in events)


class TestDotAndSteps:
    def test_to_dot_rejects_huge(self):
        from repro.core.calu import calu_program
        from repro.core.layout import BlockLayout

        graph = calu_program(BlockLayout(8000, 8000, 100), 8)[0].materialize()
        with pytest.raises(ValueError, match="max_tasks"):
            graph.to_dot(max_tasks=100)

    def test_step_schedule_respects_deps_and_width(self):
        from repro.core.calu import calu_program
        from repro.core.layout import BlockLayout

        graph = calu_program(BlockLayout(600, 600, 100), 2)[0].materialize()
        steps = graph.step_schedule(3)
        assert all(len(s) <= 3 for s in steps)
        seen = set()
        for step in steps:
            for t in step:
                assert all(p in seen for p in graph.preds[t])
            seen.update(step)
        assert seen == set(range(len(graph.tasks)))
