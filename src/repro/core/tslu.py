"""TSLU — tall-skinny LU panel factorization with tournament pivoting.

The panel is split into ``Tr`` row chunks.  Each chunk elects ``b``
candidate pivot rows by Gaussian elimination with partial pivoting
(GEPP, task P at the tree leaves: LAPACK ``?getrf``, whose ``?getrf2``
is the paper's recursive ``rgetf2`` and keeps its ``Cost``); candidate
sets are merged by further GEPP sweeps up a reduction tree (task P at
inner nodes: LAPACK ``?getrf`` too).  The winning
``b`` rows are swapped to the top of the panel and the pivot block is
factored without further pivoting (the *finalize* step); the remaining
panel rows become ``L`` via triangular solves (task L, emitted by CALU).

This module provides the tournament as the panel loop's P step for LU
(:func:`add_tslu_tasks`, see :mod:`repro.core.panelloop`) and the
standalone :func:`tslu` driver for a single tall-skinny panel — CALU
over the one-panel layout ``b = n`` — the operation the paper
benchmarks against ``MKL_dgetf2``.

Resilience: leaf tasks are *idempotent* (they read the matrix and
overwrite only their own candidate slot), so the runtime may retry
them.  Health guards watch the tournament's candidate buffers; if a
fault corrupts them, the finalize task replays the whole tournament
from the panel, which the tournament only read: one extra panel sweep
that restores the fault-free pivots and factors bit for bit (recorded
as a ``recompute`` event).  A panel that is itself non-finite fails the
replay, and with it the run (a ``health`` failure of the finalize).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.layout import BlockLayout, Chunk
from repro.core.panelloop import Emitter
from repro.core.trees import TreeKind, reduction_schedule
from repro.resilience.events import ResilienceEvent
from repro.resilience.health import DEFAULT_GROWTH_LIMIT
from repro.runtime.task import Cost

__all__ = ["PanelWorkspace", "add_tslu_tasks", "tslu"]


@dataclass
class PanelWorkspace:
    """Shared state of one panel's tournament, held in store buffers.

    The buffers are allocated from the builder's ``store=`` binding when
    the panel's window is emitted (see :mod:`repro.runtime.ops` for the
    conventions) and are the *only* copy of the state on every backend:
    tasks, health guards and corruption hooks all read and write them.

    ``slots[slot]`` is the ``(rows, gidx, count)`` candidate triple —
    pivot-row values copied out of the matrix, their row indices local
    to the panel, and how many are valid; ``flags`` is ``[corrupted,
    recomputed]``; ``piv_buf`` the length-prefixed LAPACK-style swap
    sequence the finalize task selects.  ``piv`` / ``recomputed`` are
    accessors over them.  A symbolic (cost-only) graph's workspace has
    no buffers and reads as untouched.
    """

    slots: dict[int, tuple] = field(default_factory=dict)
    slot_specs: dict[int, tuple] = field(default_factory=dict)
    flags: np.ndarray | None = None
    flags_spec: object = None
    piv_buf: np.ndarray | None = None
    piv_spec: object = None
    #: The matrix's pre-factorization magnitude, dereferenced by the
    #: pivot-growth monitor when it runs; None leaves it disarmed.
    absmax: float | None = None

    def allocate(self, store, dtype, slots: list[int], bk: int, n_swaps: int) -> None:
        """Carve this panel's buffers out of *store* (candidate rows in
        the matrix's *dtype*)."""
        shapes = (((bk, bk), dtype), ((bk,), np.int64), ((1,), np.int64))
        for slot in slots:
            bufs = [store.alloc(*shape) for shape in shapes]
            self.slots[slot] = tuple(view for view, _ in bufs)
            self.slot_specs[slot] = tuple(spec for _, spec in bufs)
        self.flags, self.flags_spec = store.alloc((2,), np.int64)
        self.piv_buf, self.piv_spec = store.alloc((n_swaps + 1,), np.int64)

    def reset(self, absmax: float | None = None) -> None:
        """Forget a previous run: what a cached graph owes its next one.

        Empties the candidate slots and the pivot sequence, clears both
        flags, and re-arms the growth monitor with the new matrix's
        *absmax* (when it was armed at build).
        """
        for _, _, count in self.slots.values():
            count[0] = 0
        self.flags[:] = 0
        self.piv_buf[0] = 0
        if self.absmax is not None:
            self.absmax = absmax

    def to_arrays(self) -> dict:
        """The panel's verdict as named arrays (checkpoint payloads):
        the length-prefixed pivot buffer and the flags."""
        return {"piv": self.piv_buf, "flags": self.flags}

    def restore(self, arrays: dict) -> None:
        """Refill the buffers from a :meth:`to_arrays` payload
        (checkpoint resume), in place: the tasks' descriptors address
        them."""
        self.piv_buf[:] = arrays["piv"]
        self.flags[:] = arrays["flags"]

    @property
    def piv(self) -> np.ndarray | None:
        """The panel's swap sequence; None until the finalize task ran."""
        if self.piv_buf is None or self.piv_buf[0] == 0:
            return None
        return self.piv_buf[1 : 1 + int(self.piv_buf[0])]

    @property
    def recomputed(self) -> bool:
        """The finalize task repaired a corrupted tournament by
        replaying the whole reduction from the (untouched) panel data —
        the first rung of the recovery ladder, yielding pivots identical
        to a fault-free run."""
        return self.flags is not None and bool(self.flags[1])


def _candidate_guard(ws: PanelWorkspace, slot: int, K: int, name: str):
    """Health guard for a tournament task: non-finite candidates flag the panel for replay."""
    rows, _, count = ws.slots[slot]
    flags = ws.flags

    def guard() -> ResilienceEvent | None:
        if not np.isfinite(rows[: count[0]]).all():
            flags[0] = 1
            return ResilienceEvent(
                kind="health",
                task=name,
                detail=f"panel {K}: non-finite tournament candidates in slot {slot}",
            )
        return None

    return guard


def _corrupt_candidates(ws: PanelWorkspace, slot: int):
    """Corruption hook for fault injection: poison this slot's candidate rows."""
    rows, _, count = ws.slots[slot]

    def corrupt() -> bool:
        cand = rows[: count[0]]
        if cand.size == 0:
            return False
        cand.flat[cand.size // 2] = np.nan
        return True

    return corrupt


def _panel_guard(
    A: np.ndarray,
    k0: int,
    r: int,
    c0: int,
    c1: int,
    ws: PanelWorkspace,
    K: int,
    name: str,
    growth_limit: float = DEFAULT_GROWTH_LIMIT,
):
    """Health guard after finalize: fatal on non-finite factors, warn on growth."""

    def guard() -> ResilienceEvent | None:
        block = A[k0 : k0 + r, c0:c1]
        if not np.isfinite(block).all():
            return ResilienceEvent(
                kind="health",
                task=name,
                detail=f"panel {K}: non-finite values in factored pivot block",
                fatal=True,
            )
        if ws.recomputed:
            return ResilienceEvent(
                kind="recompute",
                task=name,
                detail=f"panel {K}: corrupted tournament replayed from clean panel data",
            )
        absmax = ws.absmax
        if absmax is not None and absmax > 0:
            growth = float(np.abs(block).max()) / absmax
            if growth > growth_limit:
                return ResilienceEvent(
                    kind="health",
                    task=name,
                    detail=f"panel {K}: pivot growth {growth:.3g} exceeds {growth_limit:.3g}",
                    value=growth,
                )
        return None

    return guard


def add_tslu_tasks(
    em: Emitter,
    layout: BlockLayout,
    chunks: list[Chunk],
    tree: TreeKind,
    ws: PanelWorkspace | None,
    *,
    library: str = "repro",
    absmax: float | None = None,
) -> None:
    """Emit the TSLU tasks of the emitter's panel: the loop's P step for LU.

    *chunks* is the row partition of this iteration.  Numeric tasks are
    descriptors over ``em.store``, the binding of the matrix they factor
    in place (a :class:`~repro.runtime.tilestore.HeapBinding`, a
    :class:`~repro.runtime.shm.ShmBinding` or, out of core, a
    :class:`~repro.runtime.tilestore.StreamedBinding`): *ws* gets its
    candidate slots, flags and pivot buffer allocated from it — the same
    body on every backend, dispatchable to a
    :class:`~repro.runtime.process.ProcessExecutor` worker when the
    binding is process-shared.  A symbolic emitter's tasks carry costs
    only (*ws* is None).

    With ``em.guards`` the tournament tasks carry ``meta["health"]``
    closures that detect corrupted candidate buffers and flag the panel
    for the finalize's replay, plus ``meta["corrupt"]`` hooks so a
    :class:`~repro.resilience.faults.FaultPlan` can target the workspace
    instead of the matrix, and the finalize guards its pivot block.
    *absmax* (the matrix's pre-factorization magnitude, kept on *ws*)
    enables the pivot-growth monitor on the finalize task.  The finalize
    task repairs a corrupted tournament by replaying it from the clean
    panel data (identical pivots), or fails the run when the panel
    itself is non-finite.
    """
    K, store = em.K, em.store
    m, k0, bk = layout.m, K * layout.b, layout.panel_width(K)
    c0, c1 = k0, k0 + bk
    numeric = store is not None
    slots = [c.index for c in chunks]
    root = slots[0]
    if numeric:
        ws.allocate(store, store.A.dtype, slots, bk, min(bk, m - k0))
        ws.absmax = absmax

    # Workspace footprint keys: candidate buffers live outside the
    # block grid, so the tournament's dataflow through them is tracked
    # with symbolic per-panel keys — ("cand", K, slot) for a slot of
    # PanelWorkspace.slots, ("piv", K) for ws.piv.  The tracker then
    # derives the tree edges, ordered by construction, instead of the
    # builder hand-wiring deps.
    def cand(slot: int) -> tuple:
        return ("cand", K, slot)

    def tournament_task(name: str, slot: int, cost: Cost, op, reads: list, **meta) -> None:
        """A leaf/merge task writing candidate *slot*, guarded there."""
        if em.guards:
            meta["guard"] = _candidate_guard(ws, slot, K, name)
            meta["corrupt"] = _corrupt_candidates(ws, slot)
        em.task(name, "P", cost, op, reads=reads, writes=[cand(slot)], **meta)

    levels = reduction_schedule(len(slots), tree)
    n_merges = sum(len(level) for level in levels)
    # The panel's last election — its root merge, or its only leaf —
    # keeps its winners' factors in the root slot (payload "last"), and
    # the finalize installs them.
    for chunk in chunks:
        cost = Cost.of("rgetf2", chunk.rows, bk, library=library)
        op = numeric and (
            "tslu_leaf",
            {
                "a": store.a_spec,
                "r0": chunk.r0,
                "r1": chunk.r1,
                "c0": c0,
                "c1": c1,
                "k0": k0,
                "slot": ws.slot_specs[chunk.index],
                "last": n_merges == 0,
            },
        )
        tournament_task(
            f"P[{K}]leaf{chunk.index}", chunk.index, cost, op, chunk.blocks(K), idempotent=numeric
        )

    merges: list[tuple[int, list[int]]] = []  # (dst, srcs) in level order
    cand_rows = {c.index: min(c.rows, bk) for c in chunks}
    for level in levels:
        for dst_pos, src_pos in level:
            dst = slots[dst_pos]
            srcs = [slots[p] for p in src_pos]
            merges.append((dst, srcs))
            stacked = sum(cand_rows[s] for s in srcs)
            cost = Cost.of("gepp_merge", stacked, bk, library=library)
            op = numeric and (
                "tslu_merge",
                {
                    "srcs": [ws.slot_specs[s] for s in srcs],
                    "dst": ws.slot_specs[dst],
                    "bk": bk,
                    "flags": ws.flags_spec,
                    "last": len(merges) == n_merges,
                },
            )
            # Dependencies are derived from the candidate-slot keys:
            # RAW on each source producer, WAW on the previous writer
            # of the destination slot.
            name = f"P[{K}]merge{dst}<{','.join(map(str, srcs))}"
            tournament_task(name, dst, cost, op, [cand(s) for s in srcs])
            cand_rows[dst] = min(stacked, bk)

    r = min(bk, m - k0)
    # Words: the swaps across the panel plus the factor traffic.
    fin_cost = Cost.of("getf2_nopiv", r, bk, words=2.0 * bk * bk + 2.0 * bk * bk, library=library)
    name = f"F[{K}]"
    op = numeric and (
        "tslu_finalize",
        {
            "a": store.a_spec,
            "k0": k0,
            "m": m,
            "c0": c0,
            "c1": c1,
            "root": ws.slot_specs[root],
            "flags": ws.flags_spec,
            "piv": ws.piv_spec,
            "leaves": [(c.index, c.r0, c.r1) for c in chunks],
            "merges": merges,
        },
    )
    # The finalize swaps + factors the whole active panel column (its
    # declared writes), consumes the tournament winner and publishes
    # the pivot sequence the U tasks and the deferred left swaps read.
    panel_blocks = layout.active_blocks(K, K)
    em.task(
        name,
        "F",
        fin_cost,
        op,
        reads=[cand(root)] + panel_blocks,
        writes=panel_blocks + [("piv", K)],
        guard=em.guards and _panel_guard(em.A, k0, r, c0, c1, ws, K, name),
    )


def tslu(
    A: np.ndarray,
    tr: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    executor=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor one tall-skinny panel with tournament pivoting.

    Returns ``(lu, piv)``: the packed in-place factorization (``L``
    strictly below the diagonal with unit diagonal implicit, ``U`` on
    and above) and the LAPACK-style swap sequence such that
    ``A[perm] = L @ U`` with ``perm = piv_to_perm(piv, m)``.

    This is the standalone panel operation the paper benchmarks against
    ``MKL_dgetf2``: GEPP-quality pivots with ``O(log2 Tr)``
    synchronizations instead of one per column.

    A panel factored *out of core* is :func:`repro.core.outofcore.tslu_ooc`'s.

    *A* is copied to the working buffer (on the heap, or onto the
    shared-memory arena for the process backend), never factored in
    place; a repeated shape reuses its plan as in
    :func:`~repro.core.calu.calu`, and ``lu`` is the caller's own array.
    """
    from repro.core.driver import TSLU, factorize

    return factorize(
        TSLU,
        A,
        tr=tr,
        tree=tree,
        executor=executor,
    )
