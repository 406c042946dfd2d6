"""The LU tournament against a reference, every election on LAPACK.

Every TSLU tournament election, leaf or merge, is one LAPACK ``?getrf``
(``kernels.lu.select_pivots``).  Each node of the tournament is plain
GEPP on its chunk or on the stacked candidates
(Demmel–Grigori–Hoemmen–Langou), so the kernel that runs it changes no
selection: CALU's pivots must be those of a reference CALU written
here, in NumPy, whose every tournament node — leaves and merges —
selects with the paper's ``rgetf2`` (``getf2`` on a block shorter than
it is wide), on every tree and on the serial and process backends.  A
leaf shorter than it is wide elects ``?getrf``'s ``rows`` pivots.  The
factors must meet the backward error bound of GEPP and a growth no
worse than a small multiple of ``scipy.linalg.lu``'s; under
:func:`repro.counters.counting` every election must be one ``?getrf``
call and no NumPy ``rgetf2``/``getf2`` may run.  The pivot check has
teeth: a merge that forwards its *factored* rows up the tree, instead
of the original ones (the bug class ``docs/ALGORITHMS.md`` warns
about), fails it.

The growth slice checks the ``?getrf`` leaves against the bounds the
CALU analysis proves for tournament pivoting over a tree of height
``H`` (Demmel–Grigori–Hoemmen–Langou, arXiv:0808.2664; Grigori–Demmel–
Xiang): each panel's multipliers ``|L| <= 2^(b·H)`` and Wilkinson's
growth factor ``<= 2^(n(H+1)-1)``, on a matrix built so that bad pivots
show — a quarter of its rows nearly zero in the first column.  A leaf that elects the smallest ``|pivot|`` must fail both.

The rest of the critical path runs on vendor kernels too: the panel's
last election (its root merge, or its only leaf) keeps its winners'
factors in the root slot and the finalize installs them — no
refactoring — and every L and U task is one BLAS ``?trsm``
(``kernels.blas.blas_trsm``, ``strsm`` on float32).  The finalized pivot
block must be bitwise the root slot, in both precisions, on the serial
and process backends.  Two mutants — a finalize that installs the
winners' original rows, and an L solve that takes ``U`` for
unit-diagonal — must each fail the backward-error bound, and an exactly
singular panel must fail at its finalize with the no-pivoting LU's
``ZeroDivisionError``.

The test ids name the leaf's paper kernel, ``rgetf2`` (:data:`LEAF`):
the leaf's ``Cost`` keeps it, and LAPACK's recursive ``?getrf2`` is
that recursion.
"""

from __future__ import annotations


import numpy as np
import pytest
import scipy.linalg

from repro.analysis.errors import growth_factor
from repro.core.calu import calu
from repro.core.driver import algorithm, compile
from repro.core.layout import BlockLayout
from repro.core.panelloop import merged_chunks
from repro.core.trees import TreeKind, reduction_schedule, tree_height
from repro.core.tslu import tslu
from repro.counters import counting
from repro.kernels.blas import blas_trsm
from repro.kernels.lu import getf2, lapack_getrf, rgetf2, select_pivots
from repro.resilience.recovery import RuntimeFailure
from repro.runtime import ops
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor

#: The leaf's paper kernel (its ``Cost``), as the ids name it.
LEAF = "rgetf2"
TREES = [TreeKind.BINARY, TreeKind.FLAT, TreeKind.HYBRID]

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


def _gepp_select(block):
    """The rows GEPP picks in *block* (a copy), in pivot order."""
    rows, cols = block.shape
    fn = rgetf2 if rows >= cols else getf2
    return _swap_perm(fn(block.copy()), rows)[: min(rows, cols)]


def _lu_nopiv(P):
    """Unpivoted right-looking LU of the panel *P*, in place."""
    for j in range(min(P.shape)):
        P[j + 1 :, j] /= P[j, j]
        P[j + 1 :, j + 1 :] -= np.outer(P[j + 1 :, j], P[j, j + 1 :])


def _reference_perm(A, b, tr, tree):
    """Right-looking CALU with ``rgetf2`` at every tournament node;
    returns ``perm`` with ``A[perm] = L U``."""
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
            sel = _gepp_select(block)
            cand[c.index] = (block[sel], np.arange(c.r0, c.r1)[sel])
        slots = [c.index for c in chunks]
        for level in reduction_schedule(len(slots), tree):
            for dst, srcs in level:
                rows = np.vstack([cand[slots[s]][0] for s in srcs])
                gidx = np.concatenate([cand[slots[s]][1] for s in srcs])
                sel = _gepp_select(rows)
                cand[slots[dst]] = (rows[sel], gidx[sel])
        # Bring the winners (as rows of A) on top, in pivot order.
        for i, row in enumerate(perm[cand[slots[0]][1]]):
            p = int(np.flatnonzero(perm == row)[0])
            perm[[k0 + i, p]] = perm[[p, k0 + i]]
            W[[k0 + i, p]] = W[[p, k0 + i]]
        _lu_nopiv(W[k0:, k0 : k0 + bk])
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


def _pivot_mismatches(name, tree, executor) -> int:
    """How many rows of CALU's ``perm`` differ from the reference's."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name)
    f = calu(A, b=b, tr=tr, tree=tree, executor=executor)
    return int(np.count_nonzero(f.perm != _reference_perm(A, b, tr, tree)))


def _leaf_id(name: str) -> str:
    return f"{name}-{LEAF}"


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", SHAPES, ids=_leaf_id)
def test_pivots_are_those_of_the_leaf_kernel_at_every_node(name, tree, backend, executors):
    assert _pivot_mismatches(name, tree, executors[backend]) == 0


@pytest.mark.parametrize("shape", [(5, 12), (1, 4), (15, 16)], ids=lambda s: "{}x{}".format(*s))
def test_a_leaf_shorter_than_it_is_wide_elects_getf2s_pivots(shape):
    """A leaf block shorter than it is wide elects ``?getrf``'s ``rows``
    pivots — the ones ``getf2`` picks — with ``?getrf``'s factors, in
    one call, and the block itself untouched."""
    block = np.random.default_rng(shape[0]).standard_normal(shape)
    before = block.copy()
    with counting() as c:
        sel, lu = select_pivots(block)
    np.testing.assert_array_equal(block, before)
    work = block.copy()
    piv = lapack_getrf(work)
    assert len(sel) == shape[0]
    np.testing.assert_array_equal(sel, _swap_perm(piv, shape[0]))
    np.testing.assert_array_equal(sel, _gepp_select(block))
    np.testing.assert_array_equal(lu, work)
    assert c.kernel_calls == {"lapack_getrf": 1}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", SHAPES, ids=_leaf_id)
def test_factors_meet_the_gepp_bounds(name, tree, dtype, executors):
    """``‖A[perm] − LU‖_F / ‖A‖_F ≤ C·m·ε`` in the matrix's precision,
    and growth within ``GROWTH_SLACK`` of ``scipy.linalg.lu``'s."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name, dtype)
    f = calu(A, b=b, tr=tr, tree=tree, executor=executors["serial"])
    assert f.lu.dtype == dtype
    A64 = A.astype(np.float64)
    L, U = f.L.astype(np.float64), f.U.astype(np.float64)
    err = np.linalg.norm(A64[f.perm] - L @ U) / np.linalg.norm(A64)
    assert err <= C * m * np.finfo(dtype).eps
    _, _, U_ref = scipy.linalg.lu(A64)
    assert growth_factor(A64, U) <= GROWTH_SLACK * growth_factor(A64, U_ref)


#: (m, n, b, tr) of the growth slice: two panels of 8 columns, each
#: reduced over 4 leaves of 62 rows or more.
GROWTH_SHAPE = (256, 16, 8, 4)
#: The first column of every fourth row: nearly zero, so a leaf that
#: pivots on it ships multipliers of about its inverse.
GROWTH_TINY = 2.0**-60


def _graded_matrix(dtype):
    m, n, _, _ = GROWTH_SHAPE
    A = np.random.default_rng(m * 1000 + n).standard_normal((m, n))
    A[::4, 0] *= GROWTH_TINY
    return A.astype(dtype)


def _growth_against_the_bounds(tree, executor, dtype):
    """Each panel's ``max|L|`` against ``2^(b·H)``, then the growth
    factor against ``2^(n(H+1)-1)``, with ``H`` the height of the
    panel's reduction tree: ``(measured, bound)`` pairs.  The growth is
    Wilkinson's, over the active matrix at every panel boundary and
    ``U`` (``max|U| / max|A|`` alone misses a panel whose pivot rows
    stay small while the rows below them grow)."""
    m, n, b, tr = GROWTH_SHAPE
    A = _graded_matrix(dtype)
    with np.errstate(all="ignore"):  # a bad elimination may overflow
        f = calu(A, b=b, tr=tr, tree=tree, executor=executor, guards=False)
        layout = BlockLayout(m, n, b)
        A64 = A.astype(np.float64)
        L, U = f.L.astype(np.float64), f.U.astype(np.float64)
        checks, heights, active = [], [], [np.abs(U).max()]
        for K in range(layout.n_panels):
            k0, bk = K * b, layout.panel_width(K)
            H = tree_height(len(merged_chunks(layout, K, tr)), tree)
            heights.append(H)
            checks.append((float(np.abs(L[k0:, k0 : k0 + bk]).max()), 2.0 ** (bk * H)))
            schur = A64[f.perm][k0:, k0:] - L[k0:, :k0] @ U[:k0, k0:]
            active.append(np.abs(schur).max())
        growth = float(max(active) / np.abs(A64).max())
        checks.append((growth, 2.0 ** (n * (max(heights) + 1) - 1)))
    return checks


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", [TreeKind.BINARY, TreeKind.FLAT], ids=lambda t: t.value)
def test_leaf_pivot_growth_meets_the_tournament_bounds(tree, backend, dtype, executors):
    """The ``?getrf`` leaves elect pivots whose growth is inside the
    tournament-pivoting bounds — by orders of magnitude, as GEPP's."""
    for measured, bound in _growth_against_the_bounds(tree, executors[backend], dtype):
        assert measured <= bound
        assert measured <= 1e3  # GEPP-like in practice: no panel near its bound


def _smallest_pivot_select(block):
    """Mutation's election: GEPP on a copy that pivots on the smallest
    ``|a|`` of each column instead of the largest."""
    W = block.astype(np.float64)
    rows, cols = W.shape
    order = np.arange(rows)
    for j in range(min(rows, cols)):
        p = j + int(np.argmin(np.abs(W[j:, j])))
        W[[j, p]] = W[[p, j]]
        order[[j, p]] = order[[p, j]]
        W[j + 1 :, j] /= W[j, j]
        W[j + 1 :, j + 1 :] -= np.outer(W[j + 1 :, j], W[j, j + 1 :])
    return order[: min(rows, cols)]


def _leaf_electing_the_smallest_pivot(p):
    """Mutation: a tournament leaf whose election keeps the rows with the
    smallest ``|pivot|``."""
    A = ops.attach_array(p["a"])
    r0, r1, k0 = p["r0"], p["r1"], p["k0"]
    block = A[r0:r1, p["c0"] : p["c1"]]
    sel = _smallest_pivot_select(block)
    ops._fill_slot(p["slot"], block[sel], np.arange(r0 - k0, r1 - k0)[sel])


@pytest.mark.parametrize("tree", [TreeKind.BINARY, TreeKind.FLAT], ids=lambda t: t.value)
def test_a_leaf_electing_the_smallest_pivot_fails_the_growth_bounds(tree, monkeypatch, executors):
    """In this process (the serial backend): its candidates are the
    nearly-zero rows, and the first panel's multipliers and the growth
    factor both break their bounds."""
    monkeypatch.setitem(ops.OPS, "tslu_leaf", _leaf_electing_the_smallest_pivot)
    first_panel, *_, growth = _growth_against_the_bounds(tree, executors["serial"], np.float64)
    assert not first_panel[0] <= first_panel[1]
    assert not growth[0] <= growth[1]


def _tournament_shape(m, n, b, tr, tree):
    """The number of leaves and of merges over every panel's tournament."""
    layout = BlockLayout(m, n, b)
    leaves = merges = 0
    for K in range(layout.n_panels):
        n_chunks = len(merged_chunks(layout, K, tr))
        leaves += n_chunks
        merges += sum(len(level) for level in reduction_schedule(n_chunks, tree))
    return leaves, merges


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"{LEAF}-{t.value}")
def test_each_merge_is_one_getrf_call(tree, backend, executors):
    """Every election, leaf or merge, is exactly one ``?getrf`` call,
    and no NumPy ``rgetf2``/``getf2`` runs."""
    name = "lu_tall-2560x128"
    m, n, b, tr = SHAPES[name]
    leaves, merges = _tournament_shape(m, n, b, tr, tree)
    with counting() as c:
        calu(_matrix(name), b=b, tr=tr, tree=tree, executor=executors[backend])
    assert merges > 0
    assert c.kernel_calls.get("lapack_getrf") == leaves + merges
    assert not {"rgetf2", "getf2"} & set(c.kernel_calls)


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
    assert _pivot_mismatches("lu_tall-2560x128", TreeKind.BINARY, executors["serial"]) > 0


def _backward_error(A, f) -> float:
    """``‖A[perm] − LU‖_F / ‖A‖_F``, in double precision."""
    A64 = A.astype(np.float64)
    L, U = f.L.astype(np.float64), f.U.astype(np.float64)
    return float(np.linalg.norm(A64[f.perm] - L @ U) / np.linalg.norm(A64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", SHAPES, ids=_leaf_id)
def test_finalize_installs_the_last_elections_factors(name, tree, backend, dtype, executors):
    """Each panel's pivot block is bitwise its root slot, which the last
    election filled (nothing refactors it), each L and U task is one
    ``?trsm``, and the factors meet the bound in the matrix's precision."""
    m, n, b, tr = SHAPES[name]
    A = _matrix(name, dtype)
    executor = executors[backend]
    shared = getattr(executor, "pool", None) is not None
    plan = compile(algorithm("lu"), A, b=b, tr=tr, tree=tree, shared=shared)
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
        assert c.kernel_calls.get("blas_trsm", 0) == solves
        f = plan.result(None, np.array)
    finally:
        plan.close()
    assert f.lu.dtype == dtype
    assert _backward_error(A, f) <= C * m * np.finfo(dtype).eps


def _elect_forwarding_original_rows(real):
    """Mutation: the last election keeps its winners' original rows, so
    the finalize installs ``A``'s rows where their factors belong."""
    return lambda rows, gidx, last: real(rows, gidx, False)


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
    try:
        f = calu(A, b=b, tr=tr, executor=executors["serial"], guards=False)
    except RuntimeFailure as e:
        # The mutant overflowed into a non-finite panel, which its
        # finalize refuses: caught, as by the bound.
        assert e.failure_kind == "health"
    else:
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
