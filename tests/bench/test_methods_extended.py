"""Gap-filling tests for method runners and experiment plumbing."""

import numpy as np
import pytest

from repro.bench.methods import lu_graph, simulate_lu
from repro.machine.presets import generic, intel8_mkl
from repro.runtime.task import TaskKind


class TestHybridMethod:
    def test_calu_hybrid_builds(self):
        g = lu_graph("calu_hybrid", 2000, 400, tr=4)
        g.validate()
        libs = {t.cost.library for t in g.tasks}
        assert libs == {"repro", "mkl"}

    def test_hybrid_panel_stays_repro(self):
        g = lu_graph("calu_hybrid", 1000, 500, tr=4)
        for t in g.tasks:
            if t.kind is TaskKind.P:
                assert t.cost.library == "repro"
            if t.kind in (TaskKind.S, TaskKind.U):
                assert t.cost.library == "mkl"

    def test_hybrid_at_least_as_fast_as_plain(self):
        mach = intel8_mkl()
        plain = simulate_lu("calu", 3000, 3000, mach, tr=4).gflops
        hybrid = simulate_lu("calu_hybrid", 3000, 3000, mach, tr=4).gflops
        assert hybrid >= plain * 0.999


class TestUpdateWidthPlumbing:
    def test_update_width_reduces_tasks(self):
        g1 = lu_graph("calu", 2000, 2000, tr=4)
        g2 = lu_graph("calu", 2000, 2000, tr=4, update_width=400)
        assert len(g2) < len(g1)

    def test_update_width_same_flops(self):
        g1 = lu_graph("calu", 1500, 1500, tr=4)
        g2 = lu_graph("calu", 1500, 1500, tr=4, update_width=300)
        assert g1.total_flops() == pytest.approx(g2.total_flops())

    def test_simulate_with_update_width(self):
        r = simulate_lu("calu", 2000, 1000, generic(4), tr=2, update_width=200)
        assert r.gflops > 0


class TestSimulatedPolicies:
    def test_lookahead_priority_not_slower_on_tall(self):
        from repro.runtime.simulated import SimulatedExecutor

        mach = generic(4)
        g_p = lu_graph("calu", 40000, 400, tr=4)
        g_0 = lu_graph("calu", 40000, 400, tr=4, lookahead=0)
        mk_p = SimulatedExecutor(mach).run(g_p).makespan
        mk_0 = SimulatedExecutor(mach).run(g_0).makespan
        assert mk_p <= mk_0 * 1.2


class TestMachineEdgeCases:
    def test_single_core_machine(self):
        r = simulate_lu("calu", 1000, 500, generic(1), tr=2)
        assert r.gflops > 0
        assert r.trace.idle_fraction() < 0.05  # one core never waits for peers

    def test_zero_overhead_machine(self):
        mach = generic(4, task_overhead_us=0.0, sync_latency_us=0.0)
        r = simulate_lu("calu", 1000, 500, mach, tr=4)
        assert r.gflops > 0

    def test_huge_bandwidth_removes_contention(self):
        slow = generic(4, mem_bw_gbs=1.0)
        fast = generic(4, mem_bw_gbs=10_000.0)
        g_s = simulate_lu("mkl_getf2", 100_000, 64, slow).gflops
        g_f = simulate_lu("mkl_getf2", 100_000, 64, fast).gflops
        assert g_f > g_s * 1.5  # BLAS2 panel is bandwidth-limited
