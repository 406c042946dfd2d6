"""The LU tournament against a reference, and its merges on LAPACK.

Every TSLU tournament merge selects with LAPACK ``?getrf``
(``kernels.lu.MERGE_KERNEL``) whatever ``leaf_kernel=`` says; the
leaves keep the caller's kernel.  Each node of the tournament is plain
GEPP on the stacked candidates (Demmel–Grigori–Hoemmen–Langou), so the
kernel that runs it changes no selection: CALU's pivots must be those of
a reference CALU written here, in NumPy, whose every tournament node —
leaves and merges — selects with the leaf kernel, on every tree and on
the serial and process backends.  The factors must meet the backward
error bound of GEPP and a growth no worse than a small multiple of
``scipy.linalg.lu``'s; under :func:`repro.counters.counting` each merge
must be one ``?getrf`` call and the leaves must still be counted under
their leaf kernel.  The pivot check has teeth: a merge that forwards
its *factored* rows up the tree, instead of the original ones (the bug
class ``docs/ALGORITHMS.md`` warns about), fails it.

The rest of the critical path runs on vendor kernels too: the panel's
last election (its root merge, or its only leaf) keeps its winners'
factors in the root slot and the finalize installs them — no
``getf2_nopiv`` — and every L and U task is one BLAS ``?trsm``
(``kernels.blas.blas_trsm``, ``strsm`` on float32).  The finalized pivot
block must be bitwise the root slot, in both precisions, on the serial
and process backends.  Two mutants — a finalize that installs the
winners' original rows, and an L solve that takes ``U`` for
unit-diagonal — must each fail the backward-error bound, and an exactly
singular panel must fail at its finalize with the no-pivoting LU's
``ZeroDivisionError``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
import scipy.linalg

from repro.analysis.errors import growth_factor
from repro.core.calu import calu, calu_program
from repro.core.driver import algorithm, compile
from repro.core.layout import BlockLayout
from repro.core.panelloop import merged_chunks
from repro.core.trees import TreeKind, reduction_schedule
from repro.core.tslu import tslu
from repro.counters import counting
from repro.kernels.blas import blas_trsm
from repro.kernels.lu import PANEL_KERNELS, getf2, getf2_nopiv, lapack_getrf
from repro.resilience.recovery import RuntimeFailure
from repro.runtime import ops
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor

KERNELS = ["rgetf2", "getf2"]
TREES = [TreeKind.BINARY, TreeKind.FLAT, TreeKind.HYBRID]
ARITY = inspect.signature(calu_program).parameters["arity"].default

#: name -> (m, n, b, tr): the three LU workload shapes, a ragged and a wide one.
SHAPES = {
    "lu_tall-2560x128": (2560, 128, 32, 8),
    "lu_square-256x256": (256, 256, 16, 2),
    "svc_solve-320x320": (320, 320, 64, 2),
    "ragged-100x70": (100, 70, 16, 4),
    "wide-48x80": (48, 80, 16, 3),
}

#: Slack on the ``m * eps`` backward-error bound, and on the growth
#: against ``scipy.linalg.lu``'s on the same matrix.
C = 10.0
GROWTH_SLACK = 4.0


def _matrix(name, dtype=np.float64):
    m, n, _, _ = SHAPES[name]
    return np.random.default_rng(m * 1000 + n).standard_normal((m, n)).astype(dtype)


def _swap_perm(swaps, m):
    """The permutation of applying ``(i, swaps[i])`` in order."""
    perm = np.arange(m)
    for i, p in enumerate(swaps):
        perm[[i, p]] = perm[[p, i]]
    return perm


def _gepp_select(block, kernel):
    """The rows GEPP picks in *block* (a copy), in pivot order."""
    rows, cols = block.shape
    fn = PANEL_KERNELS[kernel] if rows >= cols else getf2
    return _swap_perm(fn(block.copy()), rows)[: min(rows, cols)]


def _reference_perm(A, b, tr, tree, kernel):
    """Right-looking CALU with *kernel* at every tournament node; returns
    ``perm`` with ``A[perm] = L U``."""
    W = A.astype(np.float64)
    m, n = W.shape
    layout = BlockLayout(m, n, b)
    perm = np.arange(m)
    for K in range(layout.n_panels):
        k0, bk = K * b, layout.panel_width(K)
        chunks = merged_chunks(layout, K, tr)
        cand = {}
        for c in chunks:
            block = W[c.r0 : c.r1, k0 : k0 + bk]
            sel = _gepp_select(block, kernel)
            cand[c.index] = (block[sel], np.arange(c.r0, c.r1)[sel])
        slots = [c.index for c in chunks]
        for level in reduction_schedule(len(slots), tree, ARITY):
            for dst, srcs in level:
                rows = np.vstack([cand[slots[s]][0] for s in srcs])
                gidx = np.concatenate([cand[slots[s]][1] for s in srcs])
                sel = _gepp_select(rows, kernel)
                cand[slots[dst]] = (rows[sel], gidx[sel])
        # Bring the winners (as rows of A) on top, in pivot order.
        for i, row in enumerate(perm[cand[slots[0]][1]]):
            p = int(np.flatnonzero(perm == row)[0])
            perm[[k0 + i, p]] = perm[[p, k0 + i]]
            W[[k0 + i, p]] = W[[p, k0 + i]]
        getf2_nopiv(W[k0:, k0 : k0 + bk])
        if k0 + bk < n:
            L11 = W[k0 : k0 + bk, k0 : k0 + bk]
            W[k0 : k0 + bk, k0 + bk :] = scipy.linalg.solve_triangular(
                L11, W[k0 : k0 + bk, k0 + bk :], lower=True, unit_diagonal=True
            )
            W[k0 + bk :, k0 + bk :] -= W[k0 + bk :, k0 : k0 + bk] @ W[k0 : k0 + bk, k0 + bk :]
    return perm


@pytest.fixture(scope="module")
def executors():
    made = {"serial": ThreadedExecutor(1), "process": ProcessExecutor(2)}
    yield made
    made["process"].close()


def _pivot_mismatches(name, kernel, tree, executor) -> int:
    """How many rows of CALU's ``perm`` differ from the reference's."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name)
    f = calu(A, b=b, tr=tr, tree=tree, leaf_kernel=kernel, executor=executor)
    return int(np.count_nonzero(f.perm != _reference_perm(A, b, tr, tree, kernel)))


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", SHAPES)
def test_pivots_are_those_of_the_leaf_kernel_at_every_node(name, kernel, tree, backend, executors):
    assert _pivot_mismatches(name, kernel, tree, executors[backend]) == 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", SHAPES)
def test_factors_meet_the_gepp_bounds(name, kernel, tree, dtype, executors):
    """``‖A[perm] − LU‖_F / ‖A‖_F ≤ C·m·ε`` in the matrix's precision,
    and growth within ``GROWTH_SLACK`` of ``scipy.linalg.lu``'s."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name, dtype)
    f = calu(A, b=b, tr=tr, tree=tree, leaf_kernel=kernel, executor=executors["serial"])
    assert f.lu.dtype == dtype
    A64 = A.astype(np.float64)
    L, U = f.L.astype(np.float64), f.U.astype(np.float64)
    err = np.linalg.norm(A64[f.perm] - L @ U) / np.linalg.norm(A64)
    assert err <= C * m * np.finfo(dtype).eps
    _, _, U_ref = scipy.linalg.lu(A64)
    assert growth_factor(A64, U) <= GROWTH_SLACK * growth_factor(A64, U_ref)


def _tournament_shape(m, n, b, tr, tree, kernel):
    """The leaf kernel's calls over every panel's leaves (counted on
    blocks of their shapes) and the number of merges."""
    layout = BlockLayout(m, n, b)
    merges = 0
    rng = np.random.default_rng(0)
    with counting() as leaves:
        for K in range(layout.n_panels):
            bk = layout.panel_width(K)
            chunks = merged_chunks(layout, K, tr)
            for c in chunks:
                _gepp_select(rng.standard_normal((c.rows, bk)), kernel)
            merges += sum(len(level) for level in reduction_schedule(len(chunks), tree, ARITY))
    return leaves.kernel_calls, merges


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("kernel", KERNELS)
def test_each_merge_is_one_getrf_call(kernel, tree, backend, executors):
    name = "lu_tall-2560x128"
    m, n, b, tr = SHAPES[name]
    leaf_calls, merges = _tournament_shape(m, n, b, tr, tree, kernel)
    with counting() as c:
        calu(_matrix(name), b=b, tr=tr, tree=tree, leaf_kernel=kernel, executor=executors[backend])
    assert merges > 0
    assert c.kernel_calls.get("lapack_getrf") == merges
    assert {k: c.kernel_calls.get(k, 0) for k in PANEL_KERNELS} == {
        k: leaf_calls.get(k, 0) for k in PANEL_KERNELS
    }


def _merge_forwarding_factored_rows(p):
    """Mutation: a merge that factors the stacked candidates in place and
    forwards the factored rows (``L``/``U`` values) instead of the
    original rows they came from."""
    srcs = [ops._read_slot(s) for s in p["srcs"]]
    rows = np.vstack([r for r, _ in srcs])
    gidx = np.concatenate([g for _, g in srcs])
    k = min(len(rows), p["bk"])
    sel = _swap_perm(lapack_getrf(rows), len(rows))[:k]
    ops._fill_slot(p["dst"], rows[:k], gidx[sel])


def test_forwarding_factored_rows_fails_the_pivot_check(monkeypatch, executors):
    """In this process (the serial backend), the mutant merge's
    candidates are no longer rows of the panel, so the levels above it
    pick other pivots."""
    monkeypatch.setitem(ops.OPS, "tslu_merge", _merge_forwarding_factored_rows)
    assert _pivot_mismatches("lu_tall-2560x128", "rgetf2", TreeKind.BINARY, executors["serial"]) > 0


def _backward_error(A, f) -> float:
    """``‖A[perm] − LU‖_F / ‖A‖_F``, in double precision."""
    A64 = A.astype(np.float64)
    L, U = f.L.astype(np.float64), f.U.astype(np.float64)
    return float(np.linalg.norm(A64[f.perm] - L @ U) / np.linalg.norm(A64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", SHAPES)
def test_finalize_installs_the_last_elections_factors(name, kernel, tree, backend, dtype, executors):
    """Each panel's pivot block is bitwise its root slot, which the last
    election filled; no ``getf2_nopiv`` runs, each L and U task is one
    ``?trsm``, and the factors meet the bound in the matrix's precision."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name, dtype)
    executor = executors[backend]
    plan = compile(
        algorithm("lu"), A, b=b, tr=tr, tree=tree, leaf_kernel=kernel,
        shared=getattr(executor, "pool", None) is not None,
    )
    try:
        with counting() as c:
            plan.run(executor)
        layout = plan.layout
        for K, ws in enumerate(plan.state):
            k0, bk = K * b, layout.panel_width(K)
            rows, _, count = ws.slots[merged_chunks(layout, K, tr)[0].index]
            r = int(count[0])
            assert r == min(bk, m - k0) and rows.dtype == dtype
            assert np.array_equal(plan.A[k0 : k0 + r, k0 : k0 + bk], rows[:r]), K
        solves = sum(t.kind.value in "LU" for t in plan.program.graph.tasks)
        assert "getf2_nopiv" not in c.kernel_calls
        assert c.kernel_calls.get("blas_trsm", 0) == solves
        f = plan.result(None, np.array)
    finally:
        plan.close()
    assert f.lu.dtype == dtype
    assert _backward_error(A, f) <= C * m * np.finfo(dtype).eps


def _elect_forwarding_original_rows(real):
    """Mutation: the last election keeps its winners' original rows, so
    the finalize installs ``A``'s rows where their factors belong."""
    return lambda rows, gidx, kernel, last: real(rows, gidx, kernel, False)


def _l_solve_with_unit_u(p):
    """Mutation: task L takes the pivot block's ``U`` for unit-diagonal."""
    A = ops.attach_array(p["a"])
    k0, c0, c1, r0, r1 = p["k0"], p["c0"], p["c1"], p["r0"], p["r1"]
    blas_trsm(A[k0 : k0 + (c1 - c0), c0:c1], A[r0:r1, c0:c1], left=False, lower=False, unit=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a wrong U may overflow the updates
@pytest.mark.parametrize("mutant", ["original_rows", "unit_u"])
def test_critical_path_mutants_fail_the_backward_error_bound(mutant, monkeypatch, executors):
    """In this process (the serial backend), on the ``svc_solve`` shape."""
    name = "svc_solve-320x320"
    m, n, b, tr = SHAPES[name]
    A = _matrix(name)
    if mutant == "original_rows":
        monkeypatch.setattr(ops, "_elect", _elect_forwarding_original_rows(ops._elect))
    else:
        monkeypatch.setitem(ops.OPS, "calu_l", _l_solve_with_unit_u)
    f = calu(A, b=b, tr=tr, executor=executors["serial"], check_finite=False)
    assert not _backward_error(A, f) <= C * m * np.finfo(np.float64).eps


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("driver", ["calu", "tslu"])
def test_singular_panel_fails_at_its_finalize(driver, backend, executors):
    """An exactly zero column leaves a zero on the root election's
    ``U`` diagonal: the finalize refuses it as the no-pivoting LU would,
    a ``task_error`` at ``F[0]`` — not a later health or corruption
    verdict on whatever the solves made of it."""
    rng = np.random.default_rng(7)
    if driver == "calu":
        A = rng.standard_normal((96, 96))
        A[:, 5] = 0.0
        run = lambda: calu(A, b=32, tr=4, executor=executors[backend])  # noqa: E731
    else:
        A = rng.standard_normal((96, 32))
        A[:, 5] = 0.0
        run = lambda: tslu(A, tr=4, executor=executors[backend])  # noqa: E731
    with pytest.raises(RuntimeFailure) as ei:
        run()
    assert ei.value.failure_kind == "task_error"
    assert ei.value.task == "F[0]"
    assert "zero pivot at 5 in no-pivoting LU" in str(ei.value)
