"""Tests for flop formulas (vs runtime counters) and error metrics."""

import numpy as np
import pytest

from repro.analysis import flops as F
from repro.analysis.errors import (
    growth_factor,
    lu_backward_error,
    orthogonality_error,
    qr_backward_error,
    residual_norm,
)
from repro.counters import counting
from repro.kernels.blas import gemm, trsm_llnu, trsm_runn
from repro.kernels.lu import getf2, piv_to_perm
from repro.kernels.qr import geqr2, geqr3
from repro.kernels.structured import ssssm_apply, tpmqrt_left_t, tpqrt, tstrf
from tests.conftest import make_rng


class TestFlopFormulasMatchCounters:
    def test_gemm(self):
        m, n, k = 13, 9, 7
        with counting() as c:
            gemm(np.zeros((m, n)), np.zeros((m, k)), np.zeros((k, n)))
        assert c.flops == F.gemm_flops(m, n, k)

    def test_trsm_left(self):
        k, n = 10, 6
        with counting() as c:
            trsm_llnu(np.eye(k), np.ones((k, n)))
        assert c.flops == F.trsm_left_flops(k, n)

    def test_trsm_right(self):
        m, k = 12, 5
        with counting() as c:
            trsm_runn(np.eye(k), np.ones((m, k)))
        assert c.flops == F.trsm_right_flops(m, k)

    def test_lu_panel(self):
        m, n = 120, 24
        A = make_rng(0).standard_normal((m, n))
        with counting() as c:
            getf2(A)
        expected = F.lu_panel_flops(m, n)
        assert abs(c.flops - expected) / expected < 0.1

    def test_qr_panel(self):
        m, n = 150, 30
        A = make_rng(1).standard_normal((m, n))
        with counting() as c:
            geqr2(A)
        expected = F.qr_panel_flops(m, n)
        assert abs(c.flops - expected) / expected < 0.15

    def test_geqr3_within_factor_of_minimal(self):
        m, n = 120, 40
        A = make_rng(2).standard_normal((m, n))
        with counting() as c:
            geqr3(A)
        expected = F.qr_panel_flops(m, n)
        assert expected * 0.8 <= c.flops <= expected * 2.5

    def test_tpqrt_ts(self):
        b, m = 16, 60
        R = np.triu(make_rng(3).standard_normal((b, b)))
        B = make_rng(4).standard_normal((m, b))
        with counting() as c:
            tpqrt(R, B)
        expected = F.tpqrt_ts_flops(m, b)
        assert abs(c.flops - expected) / expected < 0.35

    def test_tpqrt_tt(self):
        b = 20
        R1 = np.triu(make_rng(5).standard_normal((b, b)))
        R2 = np.triu(make_rng(6).standard_normal((b, b)))
        with counting() as c:
            tpqrt(R1, R2, bottom_triangular=True)
        expected = F.tpqrt_tt_flops(b)
        assert abs(c.flops - expected) / expected < 0.5

    def test_tpmqrt(self):
        b, m, n = 10, 30, 8
        Vb = make_rng(7).standard_normal((m, b))
        T = np.triu(make_rng(8).standard_normal((b, b)))
        with counting() as c:
            tpmqrt_left_t(Vb, T, np.zeros((b, n)), np.zeros((m, n)))
        expected = F.tpmqrt_flops(m, n, b)
        assert abs(c.flops - expected) / expected < 0.2

    def test_tstrf_and_ssssm(self):
        b, m, n = 12, 20, 9
        U = np.triu(make_rng(9).standard_normal((b, b)))
        A = make_rng(10).standard_normal((m, b))
        with counting() as c:
            ops = tstrf(U, A)
        assert abs(c.flops - F.tstrf_flops(m, b)) / F.tstrf_flops(m, b) < 0.3
        with counting() as c:
            ssssm_apply(ops, np.zeros((b, n)), np.zeros((m, n)))
        assert c.flops == F.ssssm_flops(m, n, b)

    def test_lu_flops_orientation(self):
        assert F.lu_flops(100, 100) == pytest.approx(2.0 * 100**3 / 3.0, rel=0.01)
        assert F.lu_flops(200, 50) == F.lu_flops(200, 50)
        assert F.lu_flops(50, 200) == F.lu_flops(200, 50)  # symmetric convention

    def test_qr_flops_square(self):
        n = 64
        assert F.qr_flops(n, n) == pytest.approx(4.0 * n**3 / 3.0, rel=0.01)

    def test_tslu_extra_flops_positive_and_ordered(self):
        """More leaves => more redundant work; flat == binary merge total."""
        e2 = F.tslu_extra_flops(10000, 100, 2)
        e8 = F.tslu_extra_flops(10000, 100, 8)
        assert 0 < e2 < e8


class TestErrorMetrics:
    def test_lu_backward_error_zero_for_exact(self):
        A = make_rng(0).standard_normal((20, 20))
        import scipy.linalg

        P, L, U = scipy.linalg.lu(A)
        perm = np.argmax(P.T, axis=1)
        assert lu_backward_error(A, perm, L, U) < 1e-14

    def test_qr_backward_error(self):
        A = make_rng(1).standard_normal((30, 10))
        Q, R = np.linalg.qr(A)
        assert qr_backward_error(A, Q, R) < 1e-14
        assert qr_backward_error(A, Q, R * 1.5) > 0.1

    def test_orthogonality_error(self):
        Q, _ = np.linalg.qr(make_rng(2).standard_normal((20, 5)))
        assert orthogonality_error(Q) < 1e-14
        assert orthogonality_error(Q * 2.0) > 1.0

    def test_growth_factor(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        U = np.array([[8.0, 0.0], [0.0, 1.0]])
        assert growth_factor(A, U) == 2.0
        assert growth_factor(np.zeros((2, 2)), U) == 0.0

    def test_residual_norm(self):
        A = make_rng(3).standard_normal((10, 10))
        x = make_rng(4).standard_normal(10)
        assert residual_norm(A, x, A @ x) < 1e-14


class TestScheduleStats:
    def test_stats_from_simulated_run(self):
        from repro.analysis.schedule import schedule_stats
        from repro.core.calu import calu_program
        from repro.core.layout import BlockLayout
        from repro.machine.presets import generic
        from repro.runtime.simulated import SimulatedExecutor

        mach = generic(4)
        graph = calu_program(BlockLayout(800, 400, 100), 4)[0].materialize()
        trace = SimulatedExecutor(mach).run(graph)
        stats = schedule_stats(trace, graph, mach)
        assert stats.makespan > 0
        assert 0.0 <= stats.idle_fraction < 1.0
        assert stats.critical_path <= stats.makespan * (1 + 1e-9)
        assert 0.0 < stats.panel_fraction < 1.0
        assert stats.efficiency == pytest.approx(1 - stats.idle_fraction)
        assert stats.critical_path_slack >= 1.0 - 1e-9
        assert stats.n_tasks == len(graph.tasks)

    def test_stats_without_machine_uses_observed(self):
        from repro.analysis.schedule import schedule_stats
        from repro.machine.presets import generic
        from repro.runtime.graph import TaskGraph
        from repro.runtime.simulated import SimulatedExecutor
        from repro.runtime.task import Cost, TaskKind

        g = TaskGraph()
        a = g.add("a", TaskKind.P, Cost("gemm", 10, 10, 10, flops=1e7))
        g.add("b", TaskKind.S, Cost("gemm", 10, 10, 10, flops=1e7), deps=[a])
        trace = SimulatedExecutor(generic(2)).run(g)
        stats = schedule_stats(trace, g)
        assert stats.critical_path == pytest.approx(trace.makespan, rel=0.2)
