"""The QR kernels against LAPACK's own QR, and across backends.

CAQR's TSQR tree runs LAPACK in every task slot — ``?geqrt`` leaves,
``?tpqrt`` merges, ``?tpmqrt`` node updates.  Its factors must meet the
backward-stability bounds of Householder QR on an input lattice —
tall, ragged, wide, more row chunks asked for than there are row
blocks, rank-deficient, float32, Fortran-order — on every tree, in
memory and out of core, with ``scipy.linalg.qr`` as the oracle for
``R``; they must be bitwise the same on every executor
(``test_golden_digests.py`` pins them), and each merge pair and
node-update pair must be one vendor call.  The leaf updates (``larfb``
over the ``V`` each leaf leaves packed in the panel) are checked by the
``Q`` they build: ``QᵀA`` must be ``[R; 0]`` and ``Q`` must undo ``Qᵀ``
on every tree, plane and precision, and each of two mutations of the
packed-``V`` contract must break that check.

The test ids name the leaf kernel, ``geqrt`` (:data:`LEAF`).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.core.caqr import caqr
from repro.core.driver import ALGORITHMS, compile
from repro.runtime import ops
from repro.runtime.tilestore import attach_array
from repro.core.trees import TreeKind
from repro.core.outofcore import tsqr_ooc
from repro.core.tsqr import tsqr
from repro.counters import counting
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor
from tests.core.test_golden_digests import SHAPES, TREES, _crc

#: The leaf kernel, as the ids name it.
LEAF = "geqrt"
ALL_TREES = [*TREES, TreeKind.HYBRID]

#: Slack on the ``m * eps`` bounds (the constants of Higham's Householder
#: QR analysis, plus TSQR's tree levels).
C = 10.0


def _gaussian(m, n, dtype=np.float64, order="C"):
    A = np.random.default_rng(m * 1000 + n).standard_normal((m, n))
    return np.asarray(A, dtype=dtype, order=order)


def _rank_deficient(m, n, rank):
    rng = np.random.default_rng(7)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


#: name -> (A, b, tr)
INPUTS = {
    "qr_tall-2560x128": (_gaussian(2560, 128), 32, 8),
    "ragged-100x70": (_gaussian(100, 70), 16, 4),
    "wide-48x80": (_gaussian(48, 80), 16, 3),
    "tr_exceeds_row_blocks-64x16": (_gaussian(64, 16), 8, 16),
    "rank_deficient-120x40": (_rank_deficient(120, 40, 10), 16, 4),
    "float32-200x48": (_gaussian(200, 48, np.float32), 16, 4),
    "fortran-150x40": (_gaussian(150, 40, order="F"), 16, 3),
}


def _assert_householder_bounds(A0, Q, R):
    """``‖A − QR‖/‖A‖``, ``‖QᵀQ − I‖`` and ``|R|`` (against
    ``scipy.linalg.qr``) within ``C · m · ε`` of *A0*'s precision."""
    m = A0.shape[0]
    bound = C * m * np.finfo(A0.dtype).eps
    k = Q.shape[1]
    A64 = A0.astype(np.float64)
    norm = np.linalg.norm(A64, 2)
    assert np.linalg.norm(Q.T @ Q - np.eye(k), 2) <= bound
    assert np.linalg.norm(A64 - Q @ R, 2) / norm <= bound
    R_ref = scipy.linalg.qr(A64, mode="r")[0][:k]
    assert np.abs(np.abs(R) - np.abs(R_ref)).max() <= bound * norm


def _leaf_id(name: str) -> str:
    return f"{name}-{LEAF}"


@pytest.mark.parametrize("tree", ALL_TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", INPUTS, ids=_leaf_id)
def test_leaf_kernel_meets_the_householder_bounds(name, tree):
    A, b, tr = INPUTS[name]
    A0 = A.copy()
    f = caqr(A, b=b, tr=tr, tree=tree)
    np.testing.assert_array_equal(A, A0)  # the input is not factored in place
    assert f.packed.dtype == A.dtype
    _assert_householder_bounds(A0, f.q_explicit(), f.R)


#: name -> (A, memory_budget in bytes): tall panels streamed through a
#: budget that forces several leaves, hence merges.
OOC_INPUTS = {
    "tall-4000x32": (_gaussian(4000, 32), 200_000),
    "qr_tall-2560x128": (INPUTS["qr_tall-2560x128"][0], 700_000),
    "float32-1200x24": (_gaussian(1200, 24, np.float32), 40_000),
}


@pytest.mark.parametrize("name", OOC_INPUTS)
def test_default_kernels_meet_the_householder_bounds_out_of_core(name):
    """Streamed, a merge's blocks are loaded copies whose strictly lower
    storage is the only copy of the leaves' ``V``: a merge that wrote
    more than its upper triangles back would leave ``R`` right and
    ``Q`` wrong."""
    A, budget = OOC_INPUTS[name]
    with tsqr_ooc(A, memory_budget=budget) as f:
        assert len(f.store.merges) >= 2
        _assert_householder_bounds(A, f.q_explicit(), f.R)


@pytest.fixture(scope="module")
def executors():
    made = {
        "threaded": ThreadedExecutor(2),
        "process": ProcessExecutor(2),
    }
    yield made
    made["process"].close()


def _digest(f) -> int:
    arrays = [f.packed]
    for store in f.panels:
        flat = store.to_arrays()
        arrays += [flat[key] for key in sorted(flat)]
    return _crc(arrays)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}x{}b{}tr{}".format(*s))
def test_default_leaf_is_bitwise_equal_on_every_backend(shape, tree, executors):
    m, n, b, tr = shape
    A = np.random.default_rng(20240613).standard_normal((m, n))
    want = _digest(caqr(A, b=b, tr=tr, tree=tree))
    for backend, executor in executors.items():
        assert _digest(caqr(A, b=b, tr=tr, tree=tree, executor=executor)) == want, backend


def test_tsqr_calls_geqrt_once_per_leaf():
    A = _gaussian(400, 16)
    with counting() as c:
        f = tsqr(A, tr=4, tree=TreeKind.FLAT)
    assert len(f.store.leaves) == 4
    assert c.kernel_calls.get("geqrt") == 4
    assert "geqr3" not in c.kernel_calls


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_qr_tall_runs_one_vendor_call_per_merge_and_node_update_pair(backend, executors):
    A, b, tr = INPUTS["qr_tall-2560x128"]
    executor = executors["process"] if backend == "process" else None
    with counting() as c:
        f = caqr(A, b=b, tr=tr, tree=TreeKind.FLAT, executor=executor)
    # Four panels of tr leaves: tr - 1 merge pairs each, and panel K's
    # pairs update its 3 - K trailing block columns.
    pairs = tr - 1
    assert sum(len(store.merges) for store in f.panels) == 4 * pairs
    assert c.kernel_calls.get("geqrt") == 4 * tr
    assert c.kernel_calls.get("lapack_tpqrt") == 4 * pairs
    assert c.kernel_calls.get("lapack_tpmqrt") == (3 + 2 + 1) * pairs
    assert not {"geqr3", "tpqrt_tt", "tpmqrt"} & c.kernel_calls.keys()


# ---------------------------------------------------------------------------
# The leaf update: Q built from the V packed in the panel
# ---------------------------------------------------------------------------

#: name -> (A, b, tr): a tall, a ragged and a wide CAQR (several panels,
#: so leaf updates run), each in float64 and float32.
LEAF_UPDATE_INPUTS = {
    f"{name}-{np.dtype(dtype).name}": (INPUTS[name][0].astype(dtype), *INPUTS[name][1:])
    for name in ("qr_tall-2560x128", "ragged-100x70", "wide-48x80")
    for dtype in (np.float64, np.float32)
}


def _q_residuals(A, f) -> tuple[float, float]:
    """``‖QᵀA − [R; 0]‖/‖A‖`` and ``‖Q(QᵀC) − C‖/‖C‖`` for a random ``C``."""
    A64 = A.astype(np.float64)
    W = f.apply_qt(A64)
    W[: f.R.shape[0]] -= f.R
    C = np.random.default_rng(3).standard_normal((A.shape[0], 3))
    return (
        np.linalg.norm(W) / np.linalg.norm(A64),
        np.linalg.norm(f.apply_q(f.apply_qt(C)) - C) / np.linalg.norm(C),
    )


def _bound(A) -> float:
    return C * A.shape[0] * np.finfo(A.dtype).eps


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", ALL_TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", LEAF_UPDATE_INPUTS, ids=_leaf_id)
def test_leaf_updates_build_the_q_of_r(name, tree, backend, executors):
    A, b, tr = LEAF_UPDATE_INPUTS[name]
    executor = executors["process"] if backend == "process" else None
    f = caqr(A, b=b, tr=tr, tree=tree, executor=executor)
    assert f.packed.dtype == A.dtype
    assert max(_q_residuals(A, f)) <= _bound(A)


def _leaf_update_from_a_neighbouring_panel(p):
    """Mutation: ``V`` read from the neighbouring panel's columns."""
    w = p["c1"] - p["c0"]
    shift = -w if p["c0"] >= w else w
    ORIGINAL_OPS["caqr_leaf_update"]({**p, "c0": p["c0"] + shift, "c1": p["c1"] + shift})


def _merge_writing_triu_whole(p):
    """Mutation: a merge that writes ``triu(B)`` over the whole bottom
    block, zeroing the strictly lower storage — the leaf's ``V``."""
    ORIGINAL_OPS["tsqr_merge"](p)
    A, bk = attach_array(p["a"]), p["bk"]
    for _, s0, _, _ in p["pairs"]:
        B = A[s0 : s0 + bk, p["c0"] : p["c1"]]
        B[...] = np.triu(B)


ORIGINAL_OPS = dict(ops.OPS)
MUTATIONS = {
    "caqr_leaf_update": _leaf_update_from_a_neighbouring_panel,
    "tsqr_merge": _merge_writing_triu_whole,
}


@pytest.mark.parametrize("plane", ["heap", "shm"])
@pytest.mark.parametrize("op", MUTATIONS, ids=_leaf_id)
def test_each_mutation_of_the_packed_v_fails_the_check(op, plane, monkeypatch):
    """The check has teeth: with either mutation run in this process
    over a heap or a shared-memory binding, the residuals leave the
    bound (every plane keeps ``V`` only in the panel, so the merge's
    one breaks ``Q`` on all of them; out of core, see above)."""
    A, b, tr = LEAF_UPDATE_INPUTS["qr_tall-2560x128-float64"]
    monkeypatch.setitem(ops.OPS, op, MUTATIONS[op])
    plan = compile(ALGORITHMS["qr"], A, b=b, tr=tr, tree=TreeKind.FLAT, shared=plane == "shm")
    try:
        f = plan.result(plan.run(ThreadedExecutor(1)), plan.store.detach)
    finally:
        plan.close()
    assert max(_q_residuals(A, f)) > _bound(A)
