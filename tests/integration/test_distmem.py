"""Tests for the distributed-memory message ledger over TSLU/TSQR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.communication import panel_messages_ca
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.distmem import (
    AlphaBeta,
    CommLog,
    distributed_calu,
    distributed_gepp_panel,
    distributed_tslu,
    distributed_tsqr,
)
from repro.distmem.ledger import STORAGE_RANK
from tests.conftest import assert_lu_ok, make_rng


class TestCommLog:
    def test_counts(self):
        log = CommLog()
        log.new_round()
        log.send(0, 1, np.zeros(10))
        log.send(2, 1, np.zeros(5))
        log.new_round()
        log.send(1, 0, np.zeros(3))
        assert log.n_messages == 3
        assert log.n_rounds == 2
        assert log.total_words == 18

    def test_self_send_is_local(self):
        log = CommLog()
        log.new_round()
        log.send(1, 1, np.zeros(100))
        assert log.n_messages == 0

    def test_alpha_beta_time(self):
        log = CommLog()
        log.new_round()
        log.send(0, 1, np.zeros(10))
        log.send(2, 1, np.zeros(10))  # same receiver: serialized, 20 words
        log.new_round()
        log.send(1, 0, np.zeros(5))
        t = log.time(AlphaBeta(alpha=1.0, beta=0.1))
        assert t == pytest.approx(1.0 + 2.0 + 1.0 + 0.5)


class TestDistributedTSLU:
    @pytest.mark.parametrize("P,tree", [(1, TreeKind.BINARY), (4, TreeKind.BINARY), (7, TreeKind.FLAT), (8, TreeKind.HYBRID)])
    def test_factorization_correct(self, P, tree):
        A = make_rng(P).standard_normal((320, 16))
        res = distributed_tslu(A, P=P, tree=tree)
        assert_lu_ok(A, res.lu, res.piv, tol=1e-11)

    def test_message_rounds_log_p_binary(self):
        A = make_rng(0).standard_normal((512, 16))
        res = distributed_tslu(A, P=8, tree=TreeKind.BINARY)
        # 3 tree rounds + ceil(log2 8) broadcast rounds + 1 swap round.
        tree_rounds = 3
        bcast_rounds = 3
        assert res.comm.n_rounds <= tree_rounds + bcast_rounds + 1

    def test_flat_tree_single_merge_round(self):
        A = make_rng(1).standard_normal((512, 16))
        res_flat = distributed_tslu(A, P=8, tree=TreeKind.FLAT)
        res_bin = distributed_tslu(A, P=8, tree=TreeKind.BINARY)
        # Flat: all candidates converge on the root in one round.
        assert res_flat.comm.n_rounds < res_bin.comm.n_rounds

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            distributed_tslu(np.zeros((4, 8)), P=2)


class TestDeadRanks:
    """A lost rank reroutes the ledger; the numbers never depend on it."""

    A = make_rng(13).standard_normal((256, 8))

    def test_factors_equal_fault_free_run(self):
        clean = distributed_tslu(self.A, P=4)
        res = distributed_tslu(self.A, P=4, dead_ranks=(3, 1, 1))
        np.testing.assert_array_equal(res.piv, clean.piv)
        np.testing.assert_array_equal(res.lu, clean.lu)
        assert res.recovered_ranks == (1, 3)
        assert res.P == 4

    def test_buddy_fetches_each_lost_block_once(self):
        res = distributed_tslu(self.A, P=4, dead_ranks=(1, 3))
        fetches = [m for m in res.comm.messages if m.src == STORAGE_RANK]
        # The buddy is the next surviving rank, cyclically; a block is 64 x 8.
        assert [(m.dst, m.words) for m in fetches] == [(2, 64 * 8), (0, 64 * 8)]
        losses = [e for e in res.comm.events if e.kind == "rank_loss"]
        assert [(e.task, e.value) for e in losses] == [("rank1", 1.0), ("rank3", 3.0)]
        # Nothing is routed to or from a dead rank.
        assert not {m.src for m in res.comm.messages} & {1, 3}
        assert not {m.dst for m in res.comm.messages} & {1, 3}

    def test_rejects_unknown_rank_and_all_dead(self):
        with pytest.raises(ValueError, match="not among active ranks"):
            distributed_tslu(self.A, P=4, dead_ranks=(4,))
        with pytest.raises(ValueError, match="all ranks dead"):
            distributed_tslu(self.A, P=4, dead_ranks=(0, 1, 2, 3))


@pytest.mark.parametrize(
    "entry,bad",
    [
        pytest.param(distributed_tslu, {"A": np.full((16, 4), np.nan)}, id="tslu-nan"),
        pytest.param(distributed_tslu, {"A": np.ones(16)}, id="tslu-1d"),
        pytest.param(distributed_tsqr, {"A": np.full((16, 4), np.inf)}, id="tsqr-inf"),
        pytest.param(distributed_tsqr, {"P": 0}, id="tsqr-P"),
        pytest.param(distributed_calu, {"b": 0}, id="calu-b"),
        pytest.param(distributed_calu, {"A": np.full((16, 16), np.nan)}, id="calu-nan"),
        pytest.param(distributed_gepp_panel, {"A": np.full((16, 4), np.nan)}, id="gepp-nan"),
        pytest.param(distributed_gepp_panel, {"A": np.ones((16, 4), complex)}, id="gepp-complex"),
    ],
)
def test_bad_input_is_a_value_error(entry, bad):
    """Each entry point refuses bad knobs and non-finite or non-real
    panels with a ValueError, never a KeyError or a silent result."""
    kwargs = {"A": make_rng(14).standard_normal((16, 4)), "P": 2, **bad}
    with pytest.raises(ValueError):
        entry(**kwargs)


class TestDistributedGEPP:
    def test_factorization_correct(self):
        A = make_rng(3).standard_normal((200, 12))
        res = distributed_gepp_panel(A, P=4)
        assert_lu_ok(A, res.lu, res.piv, tol=1e-11)

    def test_pivots_match_sequential_gepp(self):
        from repro.kernels.lu import getf2

        A = make_rng(4).standard_normal((150, 10))
        res = distributed_gepp_panel(A, P=4)
        ref = A.copy()
        piv_ref = getf2(ref)
        np.testing.assert_array_equal(res.piv, piv_ref)
        np.testing.assert_allclose(res.lu, ref, rtol=1e-12, atol=1e-14)

    def test_needs_round_per_column(self):
        A = make_rng(5).standard_normal((400, 20))
        res = distributed_gepp_panel(A, P=8)
        assert res.comm.n_rounds >= 2 * 20  # >= reduce + bcast per column


class TestCommunicationOptimality:
    """The paper's Section II claims, measured end to end."""

    def test_tslu_needs_b_times_fewer_rounds(self):
        b, P = 32, 8
        A = make_rng(6).standard_normal((1024, b))
        ca = distributed_tslu(A, P=P, tree=TreeKind.BINARY)
        classic = distributed_gepp_panel(A, P=P)
        ratio = classic.comm.n_rounds / ca.comm.n_rounds
        assert ratio > b / 4  # O(b log P) vs O(log P)

    def test_tslu_latency_dominated_time_advantage(self):
        b, P = 32, 8
        A = make_rng(7).standard_normal((1024, b))
        ca = distributed_tslu(A, P=P, tree=TreeKind.BINARY)
        classic = distributed_gepp_panel(A, P=P)
        model = AlphaBeta(alpha=1e-5, beta=1e-9)  # latency-dominated network
        assert ca.comm.time(model) < classic.comm.time(model) / 4

    def test_binary_beats_flat_in_parallel_time(self):
        """Binary trees are optimal in parallel (paper): the flat root
        serializes P-1 receives."""
        b, P = 16, 16
        A = make_rng(8).standard_normal((2048, b))
        binary = distributed_tsqr(A, P=P, tree=TreeKind.BINARY)
        flat = distributed_tsqr(A, P=P, tree=TreeKind.FLAT)
        model = AlphaBeta(alpha=1e-7, beta=1e-7)  # bandwidth visible
        assert binary.comm.time(model) < flat.comm.time(model)
        # Total volume is identical: P-1 triangles either way.
        assert binary.comm.total_words == flat.comm.total_words


class TestDistributedTSQR:
    @pytest.mark.parametrize("P,tree", [(1, TreeKind.BINARY), (4, TreeKind.BINARY), (6, TreeKind.FLAT)])
    def test_r_correct_via_gram(self, P, tree):
        A = make_rng(P + 10).standard_normal((300, 12))
        res = distributed_tsqr(A, P=P, tree=tree)
        G1 = A.T @ A
        G2 = res.R.T @ res.R
        assert np.linalg.norm(G1 - G2) / np.linalg.norm(G1) < 1e-12
        # The shared-memory driver's R, bit for bit (300 rows split unevenly).
        np.testing.assert_array_equal(res.R, tsqr(A, tr=P, tree=tree).R)

    def test_r_matches_shared_memory_abs(self):
        """Across trees ``R`` is unique up to row signs."""
        A = make_rng(11).standard_normal((200, 8))
        res = distributed_tsqr(A, P=4, tree=TreeKind.BINARY)
        f = tsqr(A, tr=3, tree=TreeKind.FLAT)
        np.testing.assert_allclose(np.abs(res.R), np.abs(f.R), rtol=1e-9, atol=1e-11)

    def test_triangular_payloads_only(self):
        b, P = 16, 4
        A = make_rng(12).standard_normal((400, b))
        res = distributed_tsqr(A, P=P, tree=TreeKind.BINARY)
        tri = b * (b + 1) // 2
        assert res.comm.total_words == (P - 1) * tri

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            distributed_tsqr(np.zeros((4, 8)), P=2)


@given(st.integers(1, 10), st.integers(0, 100), st.sampled_from(list(TreeKind)))
@settings(max_examples=20, deadline=None)
def test_property_distributed_tslu_valid(P, seed, tree):
    rng = make_rng(seed)
    b = int(rng.integers(1, 10))
    m = b * int(rng.integers(1, 20)) + int(rng.integers(0, b))
    A = rng.standard_normal((m, b))
    res = distributed_tslu(A, P=P, tree=tree)
    assert_lu_ok(A, res.lu, res.piv, tol=1e-9)
    # One rank partition: the shared-memory tournament's pivots on every shape.
    np.testing.assert_array_equal(res.piv, tslu(A, tr=P, tree=tree)[1])


@pytest.mark.parametrize("tree", list(TreeKind), ids=str)
def test_merge_traffic_is_the_closed_form(tree):
    """A panel's merges take ``panel_messages_ca(P, tree)`` rounds and,
    any tree shape, ``P - 1`` messages (one per merged source)."""
    b = 4
    for P in range(1, 17):
        A = make_rng(P).uniform(-1.0, 1.0, (2 * P * b, b))
        A[:b] += 100.0 * np.eye(b)  # every pivot row lives on rank 0
        qr = distributed_tsqr(A, P=P, tree=tree)
        assert qr.P == P
        assert (qr.comm.n_rounds, qr.comm.n_messages) == (panel_messages_ca(P, tree), P - 1)
        lu = distributed_tslu(A, P=P, tree=tree)
        np.testing.assert_array_equal(lu.piv, np.arange(b))  # so no swap crosses ranks
        # Less the broadcast of U_kk and the pivots: binomial, P - 1 messages.
        rounds = lu.comm.n_rounds - math.ceil(math.log2(P))
        assert (rounds, lu.comm.n_messages - (P - 1)) == (panel_messages_ca(P, tree), P - 1)
