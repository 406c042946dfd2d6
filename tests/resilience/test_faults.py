"""Unit tests for the deterministic fault-injection harness."""

import numpy as np
import pytest

from repro.resilience.events import EVENT_KINDS, ResilienceEvent
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.runtime.task import Cost, Task, TaskKind


def mk_task(tid: int, kind: TaskKind = TaskKind.S, name: str | None = None, **kw) -> Task:
    return Task(tid=tid, name=name or f"t{tid}", kind=kind, cost=Cost("gemm", 8, 8, 8), **kw)


class TestDeterminism:
    def test_decide_is_pure(self):
        plan = FaultPlan(7, raise_rate=0.5, corrupt_rate=0.5, stall_rate=0.5)
        t = mk_task(3)
        first = plan.decide(t, 0)
        for _ in range(5):
            assert plan.decide(t, 0) == first

    def test_same_seed_same_schedule(self):
        ts = [mk_task(i) for i in range(50)]
        a = [FaultPlan(11, raise_rate=0.3).decide(t) for t in ts]
        b = [FaultPlan(11, raise_rate=0.3).decide(t) for t in ts]
        assert a == b

    def test_different_seed_different_schedule(self):
        ts = [mk_task(i) for i in range(200)]
        a = [bool(FaultPlan(1, raise_rate=0.3).decide(t)) for t in ts]
        b = [bool(FaultPlan(2, raise_rate=0.3).decide(t)) for t in ts]
        assert a != b

    def test_rates_are_roughly_honored(self):
        plan = FaultPlan(0, raise_rate=0.25)
        hits = sum(bool(plan.decide(mk_task(i))) for i in range(400))
        assert 0.15 < hits / 400 < 0.35


class TestTransience:
    def test_transient_clears_on_retry(self):
        plan = FaultPlan(0, raise_rate=1.0, transient=True)
        t = mk_task(0)
        assert plan.decide(t, 0).get("raise")
        assert plan.decide(t, 1) == {}

    def test_persistent_redraws(self):
        plan = FaultPlan(0, raise_rate=1.0, transient=False)
        t = mk_task(0)
        assert plan.decide(t, 0).get("raise")
        assert plan.decide(t, 7).get("raise")


class TestRates:
    def test_per_kind_mapping(self):
        plan = FaultPlan(0, raise_rate={"P": 1.0, "*": 0.0})
        assert plan.decide(mk_task(0, TaskKind.P)).get("raise")
        assert not plan.decide(mk_task(0, TaskKind.S))

    def test_star_default(self):
        plan = FaultPlan(0, raise_rate={"*": 1.0})
        assert plan.decide(mk_task(0, TaskKind.L)).get("raise")

    def test_missing_kind_means_zero(self):
        plan = FaultPlan(0, raise_rate={"P": 1.0})
        assert not plan.decide(mk_task(0, TaskKind.S))


class TestBudgetAndEvents:
    def test_max_faults_caps_injections(self):
        plan = FaultPlan(0, raise_rate=1.0, max_faults=2)
        fired = 0
        for i in range(10):
            try:
                plan.pre_task(mk_task(i))
            except InjectedFault:
                fired += 1
        assert fired == 2
        assert plan.n_injected == 2

    def test_pre_task_raises_pre_execution_fault(self):
        plan = FaultPlan(0, raise_rate=1.0)
        with pytest.raises(InjectedFault) as ei:
            plan.pre_task(mk_task(5, name="victim"))
        assert ei.value.pre_execution
        assert ei.value.task == "victim"
        assert ei.value.tid == 5

    def test_events_recorded_via_callback(self):
        seen: list[ResilienceEvent] = []
        plan = FaultPlan(0, raise_rate=1.0)
        with pytest.raises(InjectedFault):
            plan.pre_task(mk_task(0), record=seen.append)
        assert [e.kind for e in seen] == ["fault_raise"]
        assert all(e.kind in EVENT_KINDS for e in seen)

    def test_event_to_dict_roundtrips(self):
        ev = ResilienceEvent("retry", "t0", 0, detail="x", value=1.5)
        d = ev.to_dict()
        assert d["kind"] == "retry" and d["value"] == 1.5


class TestCorruption:
    def test_corrupt_hook_preferred(self):
        hit = []
        t = mk_task(0, meta={"corrupt": lambda: hit.append(1)})
        plan = FaultPlan(0, corrupt_rate=1.0, target=np.ones(4))
        assert plan.post_task(t)
        assert hit and np.isfinite(plan.target).all()

    def test_target_poisoned_without_hook(self):
        target = np.ones((3, 3))
        plan = FaultPlan(0, corrupt_rate=1.0, target=target)
        assert plan.post_task(mk_task(0))
        assert np.isnan(target).sum() == 1

    def test_no_hook_no_target_is_noop(self):
        plan = FaultPlan(0, corrupt_rate=1.0)
        assert not plan.post_task(mk_task(0))

    def test_seeded_target_sites_are_pinned(self):
        # The site is a draw on its own channel tag: dropping other
        # channels must not move where a seeded plan pokes its NaN.
        for tid, site in [(0, 68), (3, 11), (7, 73)]:
            target = np.ones(100)
            FaultPlan(5, corrupt_rate=1.0, target=target).post_task(mk_task(tid))
            assert np.flatnonzero(np.isnan(target)).tolist() == [site]
