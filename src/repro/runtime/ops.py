"""The task bodies: every numeric P/L/U/S step and the left swaps, written once.

A numeric task of the CALU/CAQR/TSLU/TSQR builders is a *descriptor*
``(opname, payload)`` — the kernel step's name plus block coordinates
and buffer specs — and its closure is ``partial(run_op, descriptor)``.
The threaded executor, the footprint sanitizer and the
process backend's workers therefore all execute the same function over the same coordinates; there is no second body to
keep in agreement.

A spec resolves through :func:`repro.runtime.tilestore.attach_array`:
an ndarray is its own spec (the in-heap
:class:`~repro.runtime.tilestore.HeapBinding`), a 4-tuple names a
``multiprocessing.shared_memory`` segment
(:class:`~repro.runtime.shm.ShmBinding`) or an mmap-backed spill file,
and a :class:`~repro.runtime.tilestore.StreamedPanel` loads the rows an
op slices out of a tile store (the out-of-core
:class:`~repro.runtime.tilestore.StreamedBinding`) — the ops are
oblivious to which plane backs them, except that a panel op which
updates a block in place hands it to :func:`_write_back` afterwards.
Only descriptors over process-shared specs are also published as
``meta["op"]`` and shipped to workers.

Each op runs one fixed kernel, so no payload names one: every TSLU
election, leaf or merge, is LAPACK ``?getrf``; a TSQR leaf is LAPACK
``?geqrt``, a merge ``?tpqrt`` and a CAQR node update ``?tpmqrt``.

Workspace state lives in store buffers on every backend, with small
conventions:

* a candidate slot is a ``(rows, gidx, count)`` buffer triple; only the
  first ``count[0]`` rows are valid.  The panel's last election (its
  payload's ``last``) writes its winners' factors there, the packed LU
  the finalize installs, instead of their original rows;
* a pivot buffer stores ``[length, swap_0, swap_1, ...]``;
* a panel's ``flags`` buffer is ``[corrupted, recomputed]``;
* leaf ``T`` and merge ``Vb``/``T`` buffers hold the implicit-Q
  factors the ``PanelQRStore`` entries are views of (a leaf's ``V``
  has none: it stays packed below ``R`` in the panel).

Payloads carry coordinates and specs only — no :mod:`repro.core`
object — so this module imports the kernels at module scope and stays
importable by a bare worker process.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.kernels.blas import blas_trsm, gemm, laswp
from repro.kernels.lu import perm_from_piv_rows, select_pivots
from repro.kernels.qr import extract_v, geqrt, larfb_left_t
from repro.kernels.structured import lapack_tpmqrt, lapack_tpqrt
from repro.runtime.tilestore import attach_array

__all__ = ["run_op", "op_task", "OPS", "calu_s_blocks"]


def _write_back(A, r0: int, r1: int, c0: int, c1: int, block: np.ndarray) -> None:
    """Commit *block* — ``A[r0:r1, c0:c1]`` as an op sliced it, since
    updated in place.  Over an ndarray the slice was a view and there
    is nothing to do; a streamed panel handed out a copy of the rows
    and takes them back with a counted store."""
    if not isinstance(A, np.ndarray):
        A[r0:r1, c0:c1] = block


# ---------------------------------------------------------------------------
# TSLU: tournament pivoting
# ---------------------------------------------------------------------------


def _elect(rows: np.ndarray, gidx: np.ndarray, last: bool) -> tuple[np.ndarray, np.ndarray]:
    """One tournament round: the winning candidate rows and their
    panel-local indices, selected by LAPACK ``?getrf``
    (:func:`~repro.kernels.lu.select_pivots`).  The rows are copies of
    the originals — the next round selects among them — except at the
    panel's *last* election, which returns the winners' packed LU from
    its factored work copy: the pivot block the finalize installs."""
    sel, lu = select_pivots(rows)
    return (lu if last else rows[sel]), gidx[sel]


def _fill_slot(slot: tuple, rows: np.ndarray, gidx: np.ndarray) -> None:
    n = len(gidx)
    attach_array(slot[0])[:n] = rows
    attach_array(slot[1])[:n] = gidx
    attach_array(slot[2])[0] = n


def _read_slot(slot: tuple) -> tuple[np.ndarray, np.ndarray]:
    n = int(attach_array(slot[2])[0])
    return attach_array(slot[0])[:n], attach_array(slot[1])[:n]


def _op_tslu_leaf(p: dict) -> None:
    A = attach_array(p["a"])
    r0, r1, k0 = p["r0"], p["r1"], p["k0"]
    block = A[r0:r1, p["c0"] : p["c1"]]
    _fill_slot(p["slot"], *_elect(block, np.arange(r0 - k0, r1 - k0), p["last"]))


def _op_tslu_merge(p: dict) -> None:
    srcs = [_read_slot(s) for s in p["srcs"]]
    rows = np.vstack([r for r, _ in srcs])
    gidx = np.concatenate([g for _, g in srcs])
    if not np.isfinite(rows).all():
        # Corrupted candidates: flag the panel and stop propagating
        # poison up the tree.  The finalize task replays the tournament.
        attach_array(p["flags"])[0] = 1
        n = min(len(rows), p["bk"])
        _fill_slot(p["dst"], rows[:n], gidx[:n])
        return
    _fill_slot(p["dst"], *_elect(rows, gidx, p["last"]))


def _recompute_tournament(
    A: np.ndarray,
    k0: int,
    c0: int,
    c1: int,
    leaves: list[tuple[int, int, int]],
    merges: list[tuple[int, list[int]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a panel's whole tournament serially from the matrix.

    The tournament tasks only *read* the panel (candidates are copies),
    so after a corruption of the candidate buffers the reduction can be
    replayed from the untouched panel data.  *leaves* is the panel's
    ``(slot, r0, r1)`` row partition and *merges* its ``(dst, srcs)``
    reduction schedule in level order — the replay makes the exact
    elections of the task graph, with its kernels, so the returned root
    slot — the last election's factored winners and their indices — is
    bitwise that of a fault-free run.
    Raises :class:`FloatingPointError` when the panel itself is
    non-finite: no election over it can yield usable pivots.
    """
    cand: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for slot, r0, r1 in leaves:
        block = A[r0:r1, c0:c1]
        if not np.isfinite(block).all():
            raise FloatingPointError(f"non-finite panel in columns {c0}:{c1}")
        cand[slot] = _elect(block, np.arange(r0 - k0, r1 - k0), not merges)
    for i, (dst, srcs) in enumerate(merges):
        cand[dst] = _elect(
            np.vstack([cand[s][0] for s in srcs]),
            np.concatenate([cand[s][1] for s in srcs]),
            i == len(merges) - 1,
        )
    return cand[leaves[0][0]]


def _op_tslu_finalize(p: dict) -> None:
    A = attach_array(p["a"])
    k0, m, c0, c1 = p["k0"], p["m"], p["c0"], p["c1"]
    r = min(c1 - c0, m - k0)
    lu, gidx = _read_slot(p["root"])
    flags = attach_array(p["flags"])
    if flags[0] or len(gidx) == 0 or not np.isfinite(lu).all():
        # The tournament tasks never wrote the matrix, so replay the
        # whole reduction from the clean panel: fault-free pivots and
        # factors, bit for bit.  A non-finite panel raises instead.
        lu, gidx = _recompute_tournament(A, k0, c0, c1, p["leaves"], p["merges"])
        flags[0] = 0
        flags[1] = 1
    piv = perm_from_piv_rows(gidx, m - k0)
    # The no-pivoting LU of the winners exists only without a zero pivot.
    zero = np.flatnonzero(np.diagonal(lu) == 0)
    if zero.size:
        raise ZeroDivisionError(f"zero pivot at {zero[0]} in no-pivoting LU")
    piv_buf = attach_array(p["piv"])
    piv_buf[0] = len(piv)
    piv_buf[1 : 1 + len(piv)] = piv
    # The swaps touch only the top r rows and their partners: gather
    # those (at most 2r) rows, swap the compact block, install the
    # pivot block's factors on top and scatter it back — the swap
    # sequence of a whole-panel laswp, without asking any plane for
    # the whole panel.
    touched = np.union1d(np.arange(r), piv)  # sorted: row i < r sits at position i
    block = A[k0 + touched, c0:c1]
    laswp(block, np.searchsorted(touched, piv))
    block[:r] = lu
    A[k0 + touched, c0:c1] = block


# ---------------------------------------------------------------------------
# CALU: L / U / S updates
# ---------------------------------------------------------------------------


def _op_calu_l(p: dict) -> None:
    A = attach_array(p["a"])
    k0, c0, c1, r0, r1 = p["k0"], p["c0"], p["c1"], p["r0"], p["r1"]
    block = A[r0:r1, c0:c1]
    blas_trsm(A[k0 : k0 + (c1 - c0), c0:c1], block, left=False, lower=False, unit=False)
    _write_back(A, r0, r1, c0, c1, block)


def _op_calu_u(p: dict) -> None:
    A = attach_array(p["a"])
    piv_buf = attach_array(p["piv"])
    piv = piv_buf[1 : 1 + int(piv_buf[0])]
    m, k0, bk = p["m"], p["k0"], p["bk"]
    j0, j1 = p["j0"], p["j1"]
    laswp(A[k0:m, j0:j1], piv)
    blas_trsm(
        A[k0 : k0 + bk, p["c0"] : p["c1"]], A[k0 : k0 + bk, j0:j1], left=True, lower=True, unit=True
    )


def _op_calu_leftswaps(p: dict) -> None:
    """Algorithm 1 line 41: apply each panel's swaps to the columns left of it."""
    A = attach_array(p["a"])
    m, b = p["m"], p["b"]
    for K, spec in enumerate(p["pivs"], start=1):
        piv_buf = attach_array(spec)
        laswp(A[K * b : m, : K * b], piv_buf[1 : 1 + int(piv_buf[0])])


def calu_s_blocks(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(C, L, U)`` operands of a ``calu_s`` payload (``C -= L U``)."""
    A = attach_array(p["a"])
    k0, r0, r1, j0, j1 = p["k0"], p["r0"], p["r1"], p["j0"], p["j1"]
    return A[r0:r1, j0:j1], A[r0:r1, p["c0"] : p["c1"]], A[k0 : k0 + p["bk"], j0:j1]


def _op_calu_s(p: dict) -> None:
    gemm(*calu_s_blocks(p))


# ---------------------------------------------------------------------------
# TSQR / CAQR: panel trees and trailing updates
# ---------------------------------------------------------------------------


def _op_tsqr_leaf(p: dict) -> None:
    A = attach_array(p["a"])
    r0, r1, c0, c1 = p["r0"], p["r1"], p["c0"], p["c1"]
    block = A[r0:r1, c0:c1]
    attach_array(p["t"])[...] = geqrt(block)
    _write_back(A, r0, r1, c0, c1, block)


def _op_tsqr_merge(p: dict) -> None:
    A = attach_array(p["a"])
    c0, c1, bk = p["c0"], p["c1"], p["bk"]
    d0 = p["pairs"][0][0]  # every pair of one merge task folds into the same R
    Rtop = A[d0 : d0 + bk, c0:c1]
    for _, s0, vb_spec, t_spec in p["pairs"]:
        Bsrc = A[s0 : s0 + bk, c0:c1]
        T = lapack_tpqrt(Rtop, Bsrc)
        attach_array(vb_spec)[...] = np.triu(Bsrc)
        attach_array(t_spec)[...] = T
        _write_back(A, s0, s0 + bk, c0, c1, Bsrc)
    _write_back(A, d0, d0 + bk, c0, c1, Rtop)


def _op_caqr_leaf_update(p: dict) -> None:
    A = attach_array(p["a"])
    r0, r1 = p["r0"], p["r1"]
    V = extract_v(A[r0:r1, p["c0"] : p["c1"]])  # the leaf's reflectors, packed in the panel
    larfb_left_t(V, attach_array(p["t"]), A[r0:r1, p["j0"] : p["j1"]])


def _op_caqr_merge_update(p: dict) -> None:
    A = attach_array(p["a"])
    j0, j1, bk = p["j0"], p["j1"], p["bk"]
    for top0, bot0, vb_spec, t_spec in p["pairs"]:
        lapack_tpmqrt(
            attach_array(vb_spec),
            attach_array(t_spec),
            A[top0 : top0 + bk, j0:j1],
            A[bot0 : bot0 + bk, j0:j1],
        )


def _op_noop(p: dict) -> None:
    """Do nothing: the round-trip calibration probe.

    :func:`repro.machine.autotune.measure_roundtrip` times a stream of
    these through a live worker pipe to price one descriptor dispatch —
    the latency term the autotuner weighs against kernel work when
    picking the backend.
    """


OPS = {
    "tslu_leaf": _op_tslu_leaf,
    "tslu_merge": _op_tslu_merge,
    "tslu_finalize": _op_tslu_finalize,
    "calu_l": _op_calu_l,
    "calu_u": _op_calu_u,
    "calu_s": _op_calu_s,
    "calu_leftswaps": _op_calu_leftswaps,
    "tsqr_leaf": _op_tsqr_leaf,
    "tsqr_merge": _op_tsqr_merge,
    "caqr_leaf_update": _op_caqr_leaf_update,
    "caqr_merge_update": _op_caqr_merge_update,
    "noop": _op_noop,
}


def run_op(op: tuple[str, dict]) -> None:
    """Execute one ``(opname, payload)`` descriptor in this process."""
    name, payload = op
    try:
        fn = OPS[name]
    except KeyError:
        raise ValueError(f"unknown op {name!r}") from None
    fn(payload)


def op_task(store, name: str, payload: dict) -> tuple[partial, dict]:
    """The one form of a numeric task: ``(fn, meta)`` for ``add_task``.

    ``fn`` runs the descriptor in whichever process calls it; the
    descriptor is also published as ``meta["op"]`` — what a
    :class:`~repro.runtime.process.ProcessExecutor` ships to a worker —
    only when *store*'s specs can cross a process boundary.
    """
    op = (name, payload)
    return partial(run_op, op), ({"op": op} if store.shared else {})
