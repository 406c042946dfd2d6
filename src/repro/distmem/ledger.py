"""The message ledger: what a core driver's run costs on ``P`` ranks.

Every factor here comes from :mod:`repro.core`'s drivers — ``tslu``,
``tsqr`` and ``calu`` with ``tr=P`` — or, for the classic panel, from
the ``getf2`` kernel itself.  What distributed memory adds is traffic,
and that is a function of the schedule the driver ran, so this module
walks it and sends each message's size through a
:class:`~repro.distmem.comm.CommLog`:

* the ranks are the driver's chunks (rank ``i`` owns chunk ``i`` of
  :func:`~repro.core.panelloop.merged_chunks`) — one partition, so the
  pivots are the shared-memory driver's on every shape;
* each level of :func:`~repro.core.trees.reduction_schedule` is one
  message round, a source rank sending its candidate set (LU) or its
  ``R`` triangle (QR) to the merge's destination;
* the pivot decisions and ``U`` go out by binomial broadcast, and the
  returned ``piv`` says which row swaps cross ranks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.calu import calu
from repro.core.layout import BlockLayout, Chunk
from repro.core.panelloop import merged_chunks
from repro.core.trees import TreeKind, reduction_schedule
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.distmem.comm import CommLog
from repro.kernels.lu import getf2, piv_to_perm
from repro.resilience.events import ResilienceEvent
from repro.resilience.health import validate_matrix

__all__ = [
    "STORAGE_RANK",
    "DistCALU",
    "DistTSQR",
    "distributed_calu",
    "distributed_gepp_panel",
    "distributed_tslu",
    "distributed_tsqr",
]

#: Virtual rank standing in for stable storage (checkpointed block
#: replicas); a recovery fetch is counted as a message from it.
STORAGE_RANK = -1


@dataclass
class DistCALU:
    """Result of a distributed LU (a panel's is CALU's with ``b = n``).

    ``lu``/``piv`` are packed exactly like
    :class:`~repro.core.calu.CALUFactorization`'s; ``comm`` is the
    message log; ``recovered_ranks`` lists the dead participants whose
    share surviving ranks took over.
    """

    lu: np.ndarray
    piv: np.ndarray
    comm: CommLog
    P: int
    recovered_ranks: tuple = ()

    @property
    def perm(self) -> np.ndarray:
        return piv_to_perm(self.piv, self.lu.shape[0])


@dataclass
class DistTSQR:
    """Result of a distributed TSQR: the final ``R`` plus the message log."""

    R: np.ndarray
    comm: CommLog
    P: int


def _send(log: CommLog, src: int, dst: int, words: int) -> None:
    log.send(src, dst, np.empty(words))


def _broadcast(log: CommLog, root: int, ranks: list[int], words: int) -> None:
    """Binomial-tree broadcast: ``ceil(log2 P)`` rounds."""
    others = [r for r in ranks if r != root]
    have = [root]
    while others:
        log.new_round()
        for src in list(have):
            if not others:
                break
            have.append(others.pop(0))
            _send(log, src, have[-1], words)


def _merges(log, chunks: list[Chunk], tree, bk: int, owner: list[int], words=None) -> None:
    """One round per tree level; a merge's sources send their ``k``
    candidate rows and indices (``k * (bk + 1)`` words), or *words*
    when given (an ``R`` triangle), to its destination."""
    count = [min(c.rows, bk) for c in chunks]
    for level in reduction_schedule(len(chunks), tree):
        log.new_round()
        for dst, srcs in level:
            for src in srcs:
                if src != dst:
                    _send(log, owner[src], owner[dst], words or count[src] * (bk + 1))
            count[dst] = min(sum(count[s] for s in srcs), bk)


def _swaps(log, piv: np.ndarray, k0: int, chunks: list[Chunk], words: int, owner) -> None:
    """One round exchanging every pair of rows ``k0 + i <-> piv[i]`` that
    lives on two ranks (*piv* holds global row indices)."""
    starts = [c.r0 for c in chunks]
    log.new_round()
    for i, p in enumerate(piv, start=k0):
        o1, o2 = (owner[bisect_right(starts, row) - 1] for row in (i, int(p)))
        if o1 != o2:
            _send(log, o2, o1, words)
            _send(log, o1, o2, words)


def _route_around(log: CommLog, chunks: list[Chunk], b: int, dead_ranks) -> tuple[list, tuple]:
    """Each dead rank's *buddy* — the next surviving rank, cyclically —
    fetches its block from stable storage and stands in for it.

    Returns the rank each slot is routed to and the sorted dead ranks.
    """
    P = len(chunks)
    dead = tuple(sorted({int(r) for r in dead_ranks}))
    unknown = [r for r in dead if not 0 <= r < P]
    if unknown:
        raise ValueError(f"dead_ranks {unknown} not among active ranks {list(range(P))}")
    if len(dead) == P:
        raise ValueError("all ranks dead: nothing can recover the panel")
    owner = list(range(P))
    if dead:
        log.new_round()
    for r in dead:
        owner[r] = next(q % P for q in range(r + 1, r + P) if q % P not in dead)
        words = chunks[r].rows * b
        _send(log, STORAGE_RANK, owner[r], words)
        log.events.append(
            ResilienceEvent(
                "rank_loss",
                task=f"rank{r}",
                detail=f"rank {r} lost; rank {owner[r]} fetched its block ({words} words)",
                value=float(r),
            )
        )
    return owner, dead


def distributed_tslu(
    A: np.ndarray,
    P: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    comm: CommLog | None = None,
    dead_ranks: tuple = (),
) -> DistCALU:
    """Tournament-pivoting LU of an ``m x b`` panel over ``P`` ranks.

    The factors are ``tslu(A, tr=P, tree=tree)``'s.
    Leaves need no communication; each tree level is one round; the
    root broadcasts ``U_kk`` and the pivot list; rows that cross ranks
    are swapped pairwise in one round.

    *comm* supplies the channel (a fresh :class:`CommLog` when None).

    *dead_ranks* models lost participants: each dead rank's buddy (the
    next surviving rank, cyclically) fetches the dead rank's block from
    stable storage (a message from :data:`STORAGE_RANK`) and stands in
    for it at every merge, broadcast and row exchange.  Only routing
    changes; the factors cannot.  Recoveries are logged as
    ``rank_loss`` events on ``comm.events`` and reported in
    ``recovered_ranks``.
    """
    lu, piv = tslu(A, tr=P, tree=tree)
    m, b = lu.shape
    chunks = merged_chunks(BlockLayout(m, b, b), 0, P)
    log = comm if comm is not None else CommLog()
    owner, dead = _route_around(log, chunks, b, dead_ranks)
    _merges(log, chunks, tree, b, owner)
    alive = [r for r in range(len(chunks)) if r not in dead]
    _broadcast(log, owner[0], alive, b * b + len(piv))
    _swaps(log, piv, 0, chunks, b, owner)
    return DistCALU(lu=lu, piv=piv, comm=log, P=len(chunks), recovered_ranks=dead)


def distributed_tsqr(
    A: np.ndarray,
    P: int = 4,
    tree: TreeKind = TreeKind.BINARY,
) -> DistTSQR:
    """QR of an ``m x b`` panel over ``P`` ranks; ``R`` is
    ``tsqr(A, tr=P, tree=tree)``'s.  Leaves need no
    communication; each tree level is one round moving only the
    ``b(b+1)/2`` triangular entries of each source's ``R``."""
    R = tsqr(A, tr=P, tree=tree).R
    m, b = np.shape(A)
    chunks = merged_chunks(BlockLayout(m, b, b), 0, P)
    log = CommLog()
    _merges(log, chunks, tree, b, list(range(len(chunks))), b * (b + 1) // 2)
    return DistTSQR(R=R, comm=log, P=len(chunks))


def distributed_gepp_panel(A: np.ndarray, P: int = 4) -> DistCALU:
    """Classic partial-pivoting panel (``getf2``) over ``P`` ranks.

    Per column: a max-reduction to rank 0 (one round), a pivot-row
    broadcast (``ceil(log2 P)`` rounds) and, when the pivot row lives
    on another rank, a swap round — the per-column synchronization
    pattern whose cost motivates TSLU.
    """
    lu = np.array(validate_matrix(A, "A"), dtype=float)
    m, b = lu.shape
    if m < b:
        raise ValueError(f"panel must be tall, got {lu.shape}")
    piv = getf2(lu)
    chunks = merged_chunks(BlockLayout(m, b, b), 0, P)
    ranks = list(range(len(chunks)))
    log = CommLog()
    for j in range(b):
        log.new_round()
        step = 1
        while step < len(ranks):  # binomial max-reduction of (|value|, row)
            for r in range(step, len(ranks), 2 * step):
                _send(log, r, r - step, 2)
            step *= 2
        _broadcast(log, 0, ranks, b - j + 1)
        _swaps(log, piv[j : j + 1], j, chunks, b, ranks)
    return DistCALU(lu=lu, piv=piv, comm=log, P=len(ranks))


def distributed_calu(
    A: np.ndarray,
    P: int = 4,
    b: int = 32,
    tree: TreeKind = TreeKind.BINARY,
) -> DistCALU:
    """CALU of an ``m x n`` matrix over ``P`` ranks; the factors are
    ``calu(A, b=b, tr=P, tree=tree)``'s.

    Each panel prices its own chunks: the TSLU tournament (one round
    per tree level), the pivot-list broadcast, one round of full-row
    swaps across ranks, and the ``U`` block row's broadcast; ``L`` and
    the trailing updates are rank-local.  That is ``O(log2 P)`` rounds
    per panel, versus ``O(b log2 P)`` for a classic panel.
    """
    f = calu(A, b=b, tr=P, tree=tree)
    m, n = f.lu.shape
    layout = BlockLayout(m, n, f.b)
    log = CommLog()
    for K in range(layout.n_panels):
        chunks = merged_chunks(layout, K, P)
        k0, bk = K * layout.b, layout.panel_width(K)
        ranks = list(range(len(chunks)))
        _merges(log, chunks, tree, bk, ranks)
        _broadcast(log, 0, ranks, min(bk, m - k0))
        _swaps(log, f.piv[k0 : k0 + bk], k0, chunks, n, ranks)
        _broadcast(log, 0, ranks, bk * (n - k0))
    return DistCALU(lu=f.lu, piv=f.piv, comm=log, P=len(merged_chunks(layout, 0, P)))
