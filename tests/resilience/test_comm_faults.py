"""Lossy-channel modelling in the distributed-memory CommLog."""

import numpy as np
import pytest

from repro.distmem.comm import AlphaBeta, CommLog
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RuntimeFailure


def fill(log: CommLog, n_msgs: int = 30, words: int = 100) -> None:
    for i in range(n_msgs):
        log.new_round()
        log.send(i % 4, (i + 1) % 4, np.ones(words))


class TestCleanChannel:
    def test_no_plan_no_overhead(self):
        log = CommLog()
        fill(log, 10)
        assert log.n_messages == 10
        assert log.n_retransmits == 0 and not log.events

    def test_local_sends_free_with_plan(self):
        log = CommLog(fault_plan=FaultPlan(0, msg_drop_rate=1.0))
        log.send(2, 2, np.ones(50))
        assert log.n_messages == 0


class TestLossyChannel:
    def test_drops_are_retransmitted_and_counted(self):
        plan = FaultPlan(0, msg_drop_rate=0.3)
        log = CommLog(fault_plan=plan)
        fill(log, 40)
        assert log.n_drops > 0
        assert log.n_retransmits == log.n_drops + log.n_corruptions
        # Every retransmission is an extra message on the wire.
        assert log.n_messages == 40 + log.n_retransmits
        assert all(e.kind == "comm_drop" for e in log.events)

    def test_corruptions_detected_by_checksum(self):
        plan = FaultPlan(1, msg_corrupt_rate=0.3)
        log = CommLog(fault_plan=plan)
        fill(log, 40)
        assert log.n_corruptions > 0
        assert any(e.kind == "comm_corrupt" for e in log.events)

    def test_recovery_traffic_costs_alpha_beta_time(self):
        model = AlphaBeta(alpha=1e-6, beta=1e-9)
        clean = CommLog()
        fill(clean, 30)
        lossy = CommLog(fault_plan=FaultPlan(0, msg_drop_rate=0.4))
        fill(lossy, 30)
        assert lossy.time(model) > clean.time(model)

    def test_deterministic_loss_schedule(self):
        def run():
            log = CommLog(fault_plan=FaultPlan(7, msg_drop_rate=0.3, msg_corrupt_rate=0.1))
            fill(log, 25)
            return log.n_drops, log.n_corruptions, log.n_messages

        assert run() == run()

    def test_persistent_loss_raises_structured(self):
        # Drop rate 1.0: every copy of the message is lost; after
        # max_retransmits the reliable transport gives up.
        log = CommLog(fault_plan=FaultPlan(0, msg_drop_rate=1.0), max_retransmits=3)
        with pytest.raises(RuntimeFailure) as ei:
            log.send(0, 1, np.ones(10))
        assert ei.value.failure_kind == "comm"
        assert "0->1" in str(ei.value)


class TestDistributedTSLUWithFaults:
    def test_distributed_tournament_survives_lossy_channel(self):
        # The distmem TSLU prices its run through CommLog; with a
        # lossy channel its pivots must be unchanged (reliable
        # transport), just more expensive.
        from repro.distmem import distributed_tslu

        rng = np.random.default_rng(0)
        A = rng.standard_normal((64, 8))
        clean_log = CommLog()
        lossy_log = CommLog(fault_plan=FaultPlan(0, msg_drop_rate=0.3))
        clean = distributed_tslu(A, P=4, comm=clean_log)
        lossy = distributed_tslu(A, P=4, comm=lossy_log)
        np.testing.assert_array_equal(clean.piv, lossy.piv)
        np.testing.assert_allclose(clean.lu, lossy.lu)
        assert lossy_log.n_messages > clean_log.n_messages
        assert lossy_log.n_retransmits > 0

    def test_hopeless_channel_fails_structured(self):
        from repro.distmem import distributed_tslu

        A = np.random.default_rng(1).standard_normal((32, 4))
        log = CommLog(fault_plan=FaultPlan(0, msg_drop_rate=1.0), max_retransmits=2)
        with pytest.raises(RuntimeFailure) as ei:
            distributed_tslu(A, P=4, comm=log)
        assert ei.value.failure_kind == "comm"
