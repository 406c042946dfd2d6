"""Tests for multithreaded CAQR (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import re

from repro.core.caqr import caqr_program, caqr
from repro.core.driver import ALGORITHMS, compile
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.resilience.checkpoint import Checkpoint, MemoryStore
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from tests.conftest import make_rng

SHAPES = [
    (64, 64, 16, 4, TreeKind.FLAT),
    (120, 120, 32, 4, TreeKind.FLAT),
    (200, 80, 25, 4, TreeKind.BINARY),
    (97, 53, 16, 3, TreeKind.FLAT),
    (64, 100, 16, 2, TreeKind.BINARY),  # wide
    (300, 40, 10, 8, TreeKind.HYBRID),
    (57, 62, 44, 6, TreeKind.BINARY),  # wide + ragged (regression)
    (130, 130, 33, 5, TreeKind.FLAT),
]


@pytest.mark.parametrize("m,n,b,tr,tree", SHAPES)
def test_reconstruct(m, n, b, tr, tree):
    A0 = make_rng(m * 3 + n + b + tr).standard_normal((m, n))
    f = caqr(A0, b=b, tr=tr, tree=tree)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-12, err


@pytest.mark.parametrize("m,n,b,tr,tree", SHAPES)
def test_orthogonality(m, n, b, tr, tree):
    A0 = make_rng(m + n + b + tr).standard_normal((m, n))
    f = caqr(A0, b=b, tr=tr, tree=tree)
    Q = f.q_explicit()
    assert np.linalg.norm(Q.T @ Q - np.eye(min(m, n))) < 1e-11


def test_r_upper_triangular():
    f = caqr(make_rng(0).standard_normal((90, 60)), b=20, tr=3)
    np.testing.assert_array_equal(f.R, np.triu(f.R))


def test_r_matches_numpy_abs():
    A0 = make_rng(1).standard_normal((100, 40))
    f = caqr(A0, b=10, tr=4)
    _, R_ref = np.linalg.qr(A0)
    np.testing.assert_allclose(np.abs(f.R[:40, :40]), np.abs(R_ref), rtol=1e-8, atol=1e-10)


def test_apply_roundtrip():
    A0 = make_rng(2).standard_normal((80, 50))
    f = caqr(A0, b=16, tr=2)
    C = make_rng(3).standard_normal((80, 3))
    np.testing.assert_allclose(f.apply_q(f.apply_qt(C)), C, atol=1e-11)


def test_apply_qt_gives_r():
    A0 = make_rng(4).standard_normal((70, 30))
    f = caqr(A0, b=10, tr=2)
    W = f.apply_qt(A0)
    np.testing.assert_allclose(W[:30], f.R, atol=1e-10)
    np.testing.assert_allclose(W[30:], 0.0, atol=1e-10)


def test_solve_ls():
    A0 = make_rng(5).standard_normal((150, 40))
    x0 = make_rng(6).standard_normal(40)
    f = caqr(A0, b=16, tr=4)
    x = f.solve_ls(A0 @ x0)
    assert np.linalg.norm(x - x0) < 1e-9


def test_solve_ls_rejects_wide():
    f = caqr(make_rng(7).standard_normal((30, 50)), b=10, tr=2)
    with pytest.raises(ValueError):
        f.solve_ls(np.ones(30))


def test_executors_agree():
    A0 = make_rng(8).standard_normal((90, 90))
    f1 = caqr(A0, b=30, tr=3, executor=ThreadedExecutor(3))
    f2 = caqr(A0, b=30, tr=3, executor=ThreadedExecutor(1))
    np.testing.assert_allclose(f1.packed, f2.packed, atol=0)


def test_single_panel_equals_tsqr():
    from repro.core.tsqr import tsqr

    A0 = make_rng(9).standard_normal((120, 20))
    fc = caqr(A0, b=20, tr=4, tree=TreeKind.BINARY)
    ft = tsqr(A0, tr=4, tree=TreeKind.BINARY)
    np.testing.assert_allclose(fc.R[:20], ft.R, atol=1e-12)


def test_vector_rhs():
    A0 = make_rng(10).standard_normal((60, 20))
    f = caqr(A0, b=10, tr=2)
    v = make_rng(11).standard_normal(60)
    assert f.apply_qt(v).shape == (60,)


def test_default_block_size():
    A0 = make_rng(12).standard_normal((200, 150))
    assert caqr(A0, tr=2).b == 100


class TestGraphStructure:
    def test_acyclic_and_symbolic(self):
        layout = BlockLayout(500, 300, 100)
        program, stores = caqr_program(layout, 4)
        graph = program.materialize()
        graph.validate()
        assert stores == []
        assert all(t.fn is None for t in graph.tasks)

    def test_kind_counts(self):
        layout = BlockLayout(400, 200, 100)  # M=4, N=2, 2 panels
        graph = caqr_program(layout, 2, TreeKind.BINARY)[0].materialize()
        counts = graph.count_by_kind()
        # Iteration 0: 2 leaves + 1 merge = 3 P; iteration 1: >=1 leaf.
        assert counts["P"] >= 4
        assert counts["S"] >= 3  # leaf updates + tree updates for column 1

    def test_flops_above_standard_count(self):
        from repro.analysis.flops import qr_flops

        layout = BlockLayout(2000, 1000, 100)
        graph = caqr_program(layout, 4)[0].materialize()
        base = qr_flops(2000, 1000)
        assert base <= graph.total_flops() <= 2.5 * base

    def test_symbolic_numeric_same_structure(self):
        layout = BlockLayout(200, 120, 40)
        g_sym = caqr_program(layout, 3)[0].materialize()
        A = make_rng(13).standard_normal((200, 120))
        g_num = caqr_program(layout, 3, A=A)[0].materialize()
        assert len(g_sym) == len(g_num)
        assert g_sym.preds == g_num.preds


@given(st.integers(0, 400))
@settings(max_examples=15, deadline=None)
def test_property_caqr_random_shapes(seed):
    rng = make_rng(seed)
    m = int(rng.integers(2, 110))
    n = int(rng.integers(2, 110))
    b = int(rng.integers(1, min(m, n) + 1))
    tr = int(rng.integers(1, 7))
    A0 = rng.standard_normal((m, n))
    f = caqr(A0, b=b, tr=tr)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-10, (m, n, b, tr, err)


class TestReflectorsStoredOnce:
    """A leaf's ``V`` lives only in its factored rows of the panel: no
    plan buffer, result array or checkpoint payload holds a second copy."""

    M, N, B, TR = 2560, 128, 32, 8  # qr_tall

    def _buffers(self, plan):
        """Every workspace array the plan's panels address."""
        for store in plan.state:
            for leaf in store.leaves.values():
                assert not isinstance(leaf.V, np.ndarray)  # a packed view, no buffer
                yield leaf.T
            for mf in store.merges:
                yield from (mf.Vb, mf.T)

    @pytest.mark.parametrize("shared", [False, True], ids=["heap", "shm"])
    def test_a_plan_holds_only_the_t_and_vb_buffers(self, shared):
        A = make_rng(14).standard_normal((self.M, self.N))
        plan = compile(
            ALGORITHMS["qr"], A, b=self.B, tr=self.TR, tree=TreeKind.FLAT, shared=shared
        )
        try:
            bufs = list(self._buffers(plan))
            assert max(buf.shape[0] for buf in bufs) == self.B  # no buffer has m rows
            held = plan.store.nbytes - A.nbytes
            if shared:  # the arena aligns every buffer to 64 bytes
                assert held <= sum(buf.nbytes + 64 for buf in bufs)
            else:
                assert held == sum(buf.nbytes for buf in bufs)
        finally:
            plan.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_a_result_references_exactly_one_m_by_n_array(self, backend):
        A = make_rng(15).standard_normal((self.M, self.N))
        if backend == "process":
            with ProcessExecutor(2) as ex:
                f = caqr(A, b=self.B, tr=self.TR, executor=ex)
        else:
            f = caqr(A, b=self.B, tr=self.TR)
        others = [f.packed]
        for store in f.panels:
            for leaf in store.leaves.values():
                assert leaf.V.A is f.packed
                others.append(leaf.T)
            others += [a for mf in store.merges for a in (mf.Vb, mf.T)]
        assert [a.shape for a in others if a.shape[0] == self.M] == [A.shape]
        C = make_rng(16).standard_normal((self.M, 2))
        np.testing.assert_allclose(f.apply_q(f.apply_qt(C)), C, atol=1e-11)

    def test_a_tsqr_result_reads_every_leaf_from_one_copy(self):
        from repro.core.tsqr import tsqr

        f = tsqr(make_rng(17).standard_normal((400, 16)), tr=4)
        assert len({id(leaf.V.A) for leaf in f.store.leaves.values()}) == 1

    def test_a_checkpoint_payload_has_no_leaf_v_and_resume_is_bitwise(self):
        from tests.resilience.test_chaos_soak import CrashAfter

        A = make_rng(18).standard_normal((80, 48))
        clean = caqr(A, b=8, tr=2)
        ckpt = Checkpoint(MemoryStore())
        with pytest.raises(RuntimeFailure):
            caqr(A, b=8, tr=2, executor=CrashAfter(ThreadedExecutor(2), 60), checkpoint=ckpt)
        chain = ckpt.snapshot_chain()
        assert chain
        keys = {key for K in chain for key in ckpt.load_snapshot(K)}
        assert any(re.fullmatch(r"panel\d+_leaf\d+_T", key) for key in keys)
        assert not any(re.search(r"leaf\d+_V", key) for key in keys)
        f = caqr(A, b=8, tr=2, checkpoint=ckpt)
        assert f.trace.resilience_summary().get("resume") == 1
        assert np.array_equal(f.packed, clean.packed)
        assert np.array_equal(f.q_explicit(), clean.q_explicit())
