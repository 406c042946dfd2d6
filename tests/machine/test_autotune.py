"""The dispatch autotuner: decision invariants, calibration, wiring.

The autotuner is advisory — it may pick either backend depending on the
host — so these tests pin the *contract*, not the choice: decisions are
well-formed, memoized, auditable as trace events, injectable with a
synthetic :class:`PipeCalibration` for determinism, and reachable
through ``resolve_executor("auto")``.
"""

from __future__ import annotations

import pytest

from repro.core.trees import TreeKind
from repro.machine import autotune as at
from repro.machine.autotune import (
    DispatchDecision,
    PipeCalibration,
    autotune,
    calibrate_pipe,
    measure_roundtrip,
)
from repro.machine.presets import generic
from repro.resilience.events import EVENT_KINDS


@pytest.fixture(autouse=True)
def _fresh_cache():
    at.clear_cache()
    yield
    at.clear_cache()


#: Deterministic dispatch prices: no live worker spawn in unit tests.
FAKE_PIPE = PipeCalibration(roundtrip_s=1e-4, spawn_s=5e-2, measured=False)


def _decide(**kw):
    kw.setdefault("pipe", FAKE_PIPE)
    kw.setdefault("model", generic(4))
    kw.setdefault("cores", 4)
    return autotune("lu", 384, 32, b=32, tr=4, tree=TreeKind.BINARY, **kw)


class TestDecisionInvariants:
    def test_well_formed(self):
        d = _decide()
        assert d.backend in ("threaded", "process")
        assert d.max_ops == 1  # nothing coarsens the builder's tasks
        assert d.n_workers >= 1
        assert set(d.predicted_s) == {"threaded", "process"}
        assert all(v > 0 for v in d.predicted_s.values())
        assert d.roundtrip_s == FAKE_PIPE.roundtrip_s
        assert d.shape == (384, 32) and d.b == 32 and d.tr == 4
        assert d.reason  # human-auditable

    def test_predicted_backend_is_argmin(self):
        d = _decide()
        assert d.backend == min(d.predicted_s, key=d.predicted_s.__getitem__)

    def test_a_brutal_roundtrip_price_forces_threaded(self):
        d = _decide(pipe=PipeCalibration(roundtrip_s=1.0, spawn_s=10.0, measured=False))
        assert d.backend == "threaded"

    def test_process_pays_one_roundtrip_per_task(self, cores=4):
        # The dispatcher sends at most one message per task it ships:
        # nothing in the graph batches them, so the price scales with the
        # task count -- less the tasks of the dispatcher's own lane, one
        # in *cores*, when there is one (cores >= 2).
        pipe = lambda rt: PipeCalibration(roundtrip_s=rt, spawn_s=0.0, measured=False)
        free, priced = _decide(pipe=pipe(0.0), cores=cores), _decide(pipe=pipe(1e-3), cores=cores)
        graph = at._symbolic_graph("lu", 384, 32, 32, 4, TreeKind.BINARY)
        extra = priced.predicted_s["process"] - free.predicted_s["process"]
        assert extra == pytest.approx(len(graph.tasks) * max(1, cores - 1) / cores * 1e-3)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_or_two_cores_pay_every_or_half_the_roundtrips(self, cores):
        self.test_process_pays_one_roundtrip_per_task(cores)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_process_spawns_one_worker_per_lane_but_the_dispatchers(self, cores):
        kw = {"pipe": PipeCalibration(roundtrip_s=0.0, spawn_s=1.0, measured=False), "cores": cores}
        cold, warm = _decide(**kw), _decide(persistent_pool=True, **kw)
        spawned = cold.predicted_s["process"] - warm.predicted_s["process"]
        assert spawned == pytest.approx(max(1, cores - 1) * 1.0)

    def test_no_shape_defaults_to_threaded(self):
        d = autotune("qr", pipe=FAKE_PIPE, model=generic(4), cores=4)
        assert d.backend == "threaded"
        assert d.shape is None and d.predicted_s == {}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown factorization kind"):
            autotune("cholesky", 64, 64, b=16, tr=4, pipe=FAKE_PIPE, model=generic(4), cores=4)

    def test_persistent_pool_drops_spawn_cost(self):
        cold = _decide(persistent_pool=False)
        warm = _decide(persistent_pool=True)
        assert warm.predicted_s["process"] <= cold.predicted_s["process"]
        assert warm.predicted_s["threaded"] == cold.predicted_s["threaded"]


class TestMemoization:
    def test_defaulted_calls_memoize(self, monkeypatch):
        monkeypatch.setattr(at, "calibrate_pipe", lambda *a, **k: FAKE_PIPE)
        d1 = autotune("lu", 96, 48, b=16, tr=4, tree=TreeKind.BINARY)
        d2 = autotune("lu", 96, 48, b=16, tr=4, tree=TreeKind.BINARY)
        assert d1 is d2

    def test_explicit_model_bypasses_cache(self):
        d1 = _decide()
        d2 = _decide()
        assert d1 is not d2  # injected model/pipe: never memoized
        assert d1.to_dict() == d2.to_dict()

    def test_clear_cache_forgets(self, monkeypatch):
        monkeypatch.setattr(at, "calibrate_pipe", lambda *a, **k: FAKE_PIPE)
        d1 = autotune("lu", 96, 48, b=16, tr=4, tree=TreeKind.BINARY)
        at.clear_cache()
        d2 = autotune("lu", 96, 48, b=16, tr=4, tree=TreeKind.BINARY)
        assert d1 is not d2


class TestAuditTrail:
    def test_event_kind_is_registered(self):
        assert "autotune" in EVENT_KINDS

    def test_event_carries_the_decision(self):
        e = _decide().event()
        assert e.kind == "autotune"
        for fragment in ("backend=", "shape=384x32", "roundtrip="):
            assert fragment in e.detail

    def test_to_dict_round_trips_through_json(self):
        import json

        d = _decide()
        blob = json.loads(json.dumps(d.to_dict()))
        assert blob["backend"] == d.backend
        assert tuple(blob["shape"]) == d.shape


class TestCalibration:
    def test_calibrate_returns_positive_prices_and_caches(self):
        c1 = calibrate_pipe(samples=4)
        c2 = calibrate_pipe(samples=4)
        assert c1 is c2  # memoized
        assert c1.roundtrip_s > 0 and c1.spawn_s > 0
        assert measure_roundtrip(samples=4) == c1.roundtrip_s

    def test_refresh_measures_again(self):
        c1 = calibrate_pipe(samples=4)
        c2 = calibrate_pipe(samples=4, refresh=True)
        assert c2 is not c1


class TestWiring:
    def test_resolve_executor_auto_returns_owned_backend(self):
        from repro.runtime.process import ProcessExecutor, resolve_executor
        from repro.runtime.threaded import ThreadedExecutor

        ex, owned = resolve_executor(
            "auto", 4, hints={"kind": "lu", "m": 96, "n": 48, "b": 16, "tr": 4}
        )
        try:
            assert owned
            assert isinstance(ex, (ThreadedExecutor, ProcessExecutor))
            assert isinstance(ex.autotune_decision, DispatchDecision)
        finally:
            if isinstance(ex, ProcessExecutor):
                ex.close()
