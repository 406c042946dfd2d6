"""The op registry is the contract: one body, any store.

Every numeric op in :data:`repro.runtime.ops.OPS` is run from the same
starting state in this process over a
:class:`~repro.runtime.tilestore.HeapBinding`, in a
:class:`~repro.runtime.process.ProcessExecutor` worker over a
:class:`~repro.runtime.shm.ShmBinding` of each store backend, and — unless it is listed in
``RESIDENT_ONLY`` — in this process over a
:class:`~repro.runtime.tilestore.StreamedBinding`, and must leave the
matrix and every workspace buffer it touches ``array_equal``.  The case
table is keyed by op name, so a new op cannot land without a case here,
nor without either a streamed form or an entry in that list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.driver import algorithm, compile
from repro.core.trees import TreeKind
from repro.core.tslu import PanelWorkspace
from repro.runtime import ops
from repro.runtime.process import ProcessExecutor
from repro.runtime.shm import SharedArena, ShmBinding
from repro.runtime.tilestore import HeapBinding, MmapTileStore, StreamedBinding

M, N, BK = 24, 12, 4  # a 24 x 12 matrix, panel columns [0, 4), two 12-row chunks
QR_KERNEL = "geqrt"  # the default QR kernel set: LAPACK leaf, merge and node update


def _workspace(store) -> PanelWorkspace:
    ws = PanelWorkspace()
    ws.allocate(store, store.A.dtype, [0, 1], BK, BK)
    return ws


def _leaf(store, ws, slot):
    r0 = 12 * slot
    payload = {
        "a": store.a_spec,
        "r0": r0,
        "r1": r0 + 12,
        "c0": 0,
        "c1": BK,
        "k0": 0,
        "leaf_kernel": "rgetf2",
        "slot": ws.slot_specs[slot],
        "last": False,  # the panel's last election is the merge
    }
    return ("tslu_leaf", payload)


def _merge(ws):
    payload = {
        "srcs": [ws.slot_specs[0], ws.slot_specs[1]],
        "dst": ws.slot_specs[0],
        "bk": BK,
        "flags": ws.flags_spec,
        "last": True,  # it keeps its winners' factors for the finalize
    }
    return ("tslu_merge", payload)


def _finalize(store, ws):
    payload = {
        "a": store.a_spec,
        "k0": 0,
        "m": M,
        "c0": 0,
        "c1": BK,
        "root": ws.slot_specs[0],
        "flags": ws.flags_spec,
        "piv": ws.piv_spec,
        "leaves": [(0, 0, 12), (1, 12, 24)],
        "merges": [(0, [0, 1])],
        "leaf_kernel": "rgetf2",
        "allow_recompute": True,
    }
    return ("tslu_finalize", payload)


def _slot_buffers(ws, slot):
    return list(ws.slots[slot])


# Each case: store -> (ops to run first, in this process; the op under
# test; the buffers it may write besides the matrix).


def case_tslu_leaf(store):
    ws = _workspace(store)
    return [], _leaf(store, ws, 1), _slot_buffers(ws, 1)


def case_tslu_merge(store):
    ws = _workspace(store)
    pre = [_leaf(store, ws, 0), _leaf(store, ws, 1)]
    return pre, _merge(ws), _slot_buffers(ws, 0) + [ws.flags]


def case_tslu_finalize(store):
    ws = _workspace(store)
    pre = [_leaf(store, ws, 0), _leaf(store, ws, 1), _merge(ws)]
    return pre, _finalize(store, ws), [ws.flags, ws.piv_buf]


def case_calu_l(store):
    payload = {"a": store.a_spec, "k0": 0, "c0": 0, "c1": BK, "r0": 4, "r1": 24}
    return [], ("calu_l", payload), []


def case_calu_u(store):
    piv, spec = store.alloc((BK + 1,), np.int64)
    piv[:] = [BK, 7, 1, 20, 3]
    payload = {"a": store.a_spec, "m": M, "k0": 0, "bk": BK, "c0": 0, "c1": BK, "j0": 4, "j1": 8, "piv": spec}
    return [], ("calu_u", payload), [piv]


def case_calu_s(store):
    payload = {"a": store.a_spec, "k0": 0, "bk": BK, "c0": 0, "c1": BK, "r0": 4, "r1": 24, "j0": 4, "j1": 12}
    return [], ("calu_s", payload), []


def _qr_leaf(store, r0, r1):
    # No V buffer: the reflectors stay packed in the factored rows.
    t, t_spec = store.alloc((BK, BK), store.A.dtype)
    payload = {
        "a": store.a_spec, "r0": r0, "r1": r1, "c0": 0, "c1": BK, "kernel": QR_KERNEL,
        "t": t_spec,
    }
    return ("tsqr_leaf", payload), t, t_spec


def _qr_merge(store):
    vb, vb_spec = store.alloc((BK, BK), store.A.dtype)
    t, t_spec = store.alloc((BK, BK), store.A.dtype)
    payload = {
        "a": store.a_spec, "c0": 0, "c1": BK, "bk": BK, "kernel": QR_KERNEL,
        "pairs": [(0, 12, vb_spec, t_spec)],
    }
    return ("tsqr_merge", payload), (vb, t), (vb_spec, t_spec)


def case_tsqr_leaf(store):
    op, t, _ = _qr_leaf(store, 0, 12)
    return [], op, [t]


def case_tsqr_merge(store):
    top, _, _ = _qr_leaf(store, 0, 12)
    bot, _, _ = _qr_leaf(store, 12, 24)
    op, bufs, _ = _qr_merge(store)
    return [top, bot], op, list(bufs)


def case_caqr_leaf_update(store):
    leaf, t, t_spec = _qr_leaf(store, 0, 12)
    payload = {
        "a": store.a_spec, "r0": 0, "r1": 12, "c0": 0, "c1": BK, "j0": 4, "j1": 12, "t": t_spec,
    }
    return [leaf], ("caqr_leaf_update", payload), [t]


def case_caqr_merge_update(store):
    top, _, _ = _qr_leaf(store, 0, 12)
    bot, _, _ = _qr_leaf(store, 12, 24)
    merge, bufs, (vb_spec, t_spec) = _qr_merge(store)
    payload = {
        "a": store.a_spec, "j0": 4, "j1": 12, "bk": BK, "kernel": QR_KERNEL,
        "pairs": [(0, 12, vb_spec, t_spec)],
    }
    return [top, bot, merge], ("caqr_merge_update", payload), list(bufs)


CASES = {name[len("case_") :]: fn for name, fn in globals().items() if name.startswith("case_")}
NUMERIC_OPS = sorted(set(ops.OPS) - {"noop"})
#: Trailing-matrix ops: no out-of-core driver emits them (yet), and they
#: update blocks in place without a write-back.
RESIDENT_ONLY = {"calu_u", "calu_s", "caqr_leaf_update", "caqr_merge_update"}


@pytest.fixture(scope="module")
def executor():
    with ProcessExecutor(1) as ex:
        yield ex


@pytest.mark.parametrize("name", NUMERIC_OPS)
def test_same_descriptor_same_bits_on_heap_and_in_a_worker(name, executor):
    assert name in CASES, f"op {name!r} has no heap-vs-worker case in {__file__}"
    A0 = np.random.default_rng(7).standard_normal((M, N))
    heap = HeapBinding(A0.copy())
    pre, op, heap_bufs = CASES[name](heap)
    for step in pre:
        ops.run_op(step)
    ops.run_op(op)

    with SharedArena() as arena, MmapTileStore() as spill:
        for tiles in (arena, spill):  # a binding over either store, in the worker
            shm = ShmBinding(tiles, tiles.place(A0))
            pre, op, shm_bufs = CASES[name](shm)
            for step in pre:
                ops.run_op(step)
            before = [buf.copy() for buf in (shm.A, *shm_bufs)]
            executor.pool.run(0, op)

            after = (shm.A, *shm_bufs)
            assert any(not np.array_equal(x, y) for x, y in zip(before, after, strict=True))
            for got, want in zip(after, (heap.A, *heap_bufs), strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

        if name in RESIDENT_ONLY:
            return
        # The streamed plane holds full-width panels: stage columns [0, BK).
        spec = arena.spec(arena.place(np.ascontiguousarray(A0[:, :BK])))
        pre, op, streamed_bufs = CASES[name](StreamedBinding(arena, spec, max_rows=M))
        for step in pre:
            ops.run_op(step)
        ops.run_op(op)
        want_all = (heap.A[:, :BK], *heap_bufs)
        for got, want in zip((arena.load(spec), *streamed_bufs), want_all, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_calu_over_a_spill_file_binding_on_two_workers():
    """End to end: the process backend factors on whichever store the
    binding names — here spill files — to the bits of the heap run."""
    A = np.random.default_rng(11).standard_normal((96, 48))
    want = calu(A, b=8, tr=2)
    with MmapTileStore() as spill, ProcessExecutor(2) as ex:
        binding = ShmBinding(spill, spill.place(A))
        plan = compile(
            algorithm("lu"), binding, b=8, tr=2, tree=TreeKind.BINARY, leaf_kernel="rgetf2"
        )
        trace = plan.run(ex)
        got = plan.result(trace, binding.detach)
        assert ex.pool.liveness() == [True, True]  # spawned lazily: both were sent ops
    assert np.array_equal(got.lu, want.lu) and np.array_equal(got.piv, want.piv)
    assert {rec.core for rec in trace.records} == {0, 1}
