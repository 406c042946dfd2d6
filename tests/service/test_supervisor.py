"""Pool supervision tests: respawn throttling and on-demand healing."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.resilience.recovery import RuntimeFailure
from repro.service import FactorizationService, ServiceConfig
from repro.service.supervisor import RespawnGovernor

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-pool tests require the fork start method",
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestRespawnGovernor:
    def test_grants_within_budget(self):
        g = RespawnGovernor(max_respawns=3, window_s=1.0, clock=FakeClock())
        assert all(g.allow_respawn(0) for _ in range(3))
        assert not g.allow_respawn(0)
        snap = g.snapshot()
        assert snap["granted"] == 3 and snap["denied"] == 1

    def test_window_slides(self):
        clock = FakeClock()
        g = RespawnGovernor(max_respawns=1, window_s=1.0, clock=clock)
        assert g.allow_respawn(0)
        assert not g.allow_respawn(1)
        clock.t = 2.0
        assert g.allow_respawn(1)

    def test_denials_are_free(self):
        # A denial must not extend the throttle window.
        clock = FakeClock()
        g = RespawnGovernor(max_respawns=1, window_s=1.0, clock=clock)
        assert g.allow_respawn(0)
        for _ in range(10):
            assert not g.allow_respawn(0)
        clock.t = 1.5
        assert g.allow_respawn(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RespawnGovernor(max_respawns=0)


@fork_only
class TestPoolIntegration:
    def _pool(self, **kw):
        from repro.runtime.process import _WorkerPool

        return _WorkerPool(2, **kw)

    def test_liveness_lazy_then_alive(self):
        pool = self._pool()
        try:
            assert pool.liveness() == [None, None]
            pool._ensure(0)
            assert pool.worker_alive(0) is True
            assert pool.worker_alive(1) is None
        finally:
            pool.close()

    def test_ensure_alive_heals_killed_idle_worker(self):
        pool = self._pool()
        try:
            pool._ensure(0)
            pid = pool._procs[0].pid
            os.kill(pid, 9)
            pool._procs[0].join(timeout=5)
            assert pool.worker_alive(0) is False
            assert pool.ensure_alive(0)
            assert pool.worker_alive(0) is True
            assert pool._procs[0].pid != pid
            assert pool.respawns == 1 and pool.deaths == 1
        finally:
            pool.close()

    def test_ensure_alive_skips_lazy_and_live(self):
        pool = self._pool()
        try:
            assert not pool.ensure_alive(0)  # never spawned: stays lazy
            pool._ensure(0)
            assert not pool.ensure_alive(0)  # alive: nothing to do
        finally:
            pool.close()

    def test_governor_throttles_respawn(self):
        clock = FakeClock()
        governor = RespawnGovernor(max_respawns=1, window_s=10.0, clock=clock)
        pool = self._pool(respawn_governor=governor)
        try:
            pool._ensure(0)
            os.kill(pool._procs[0].pid, 9)
            pool._procs[0].join(timeout=5)
            assert pool.ensure_alive(0)  # first respawn granted
            os.kill(pool._procs[0].pid, 9)
            pool._procs[0].join(timeout=5)
            assert not pool.ensure_alive(0)  # throttled
            assert pool.worker_alive(0) is False
        finally:
            pool.close()

    def test_throttled_death_surfaces_in_failure_message(self):
        clock = FakeClock()
        governor = RespawnGovernor(max_respawns=1, window_s=10.0, clock=clock)
        pool = self._pool(respawn_governor=governor)
        governor.allow_respawn(99)  # burn the budget
        try:
            pool._ensure(0)
            os.kill(pool._procs[0].pid, 9)
            pool._procs[0].join(timeout=5)
            with pytest.raises(RuntimeFailure) as exc:
                pool.run(0, ("getf2_panel", {}))
            assert exc.value.failure_kind == "worker_death"
            assert "respawn throttled" in str(exc.value)
            assert pool.worker_alive(0) is False  # stayed down
        finally:
            pool.close()

    def test_a_process_service_heals_on_demand_without_a_thread(self):
        # Big enough that tasks are ready side by side: the dispatcher
        # runs one per pass on its own lane and ships the rest, so the
        # one worker process of cores=2 is spawned (a single-panel
        # chain would run whole on the parent lane).
        rng = np.random.default_rng(9)
        A = rng.standard_normal((256, 256)) + 256 * np.eye(256)
        rhs = rng.standard_normal(256)
        with FactorizationService(ServiceConfig(cores=2, backend="process")) as svc:
            assert not [t for t in threading.enumerate() if t.name == "repro-supervisor"]
            x = svc.solve(A, rhs)
            pool = svc._executor.pool
            assert pool.worker_alive(0) is True
            os.kill(pool._procs[0].pid, 9)  # killed while idle
            pool._procs[0].join(timeout=5)
            # The next request's first message to the dead worker respawns it.
            np.testing.assert_array_equal(svc.solve(A, rhs), x)
            assert pool.deaths == 1 and pool.respawns == 1
            assert pool.worker_alive(0) is True
