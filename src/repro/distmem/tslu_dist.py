"""Distributed-memory TSLU and the classic panel it replaces.

Both routines factor an ``m x b`` panel distributed by block rows over
``P`` ranks, performing real arithmetic and counting every exchange:

* :func:`distributed_tslu` — tournament pivoting: local GEPP at each
  rank, candidate sets merged up a reduction tree (one message round
  per level), final pivots broadcast, rows swapped, local ``L`` solves.
* :func:`distributed_gepp_panel` — classic partial pivoting: for every
  column, a max-reduction round and a pivot-row broadcast round — the
  ``O(b log P)`` message pattern CALU eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trees import TreeKind, reduction_schedule
from repro.distmem.comm import CommLog, RowBlocks
from repro.kernels.blas import trsm_runn
from repro.kernels.lu import getf2, getf2_nopiv, perm_from_piv_rows, piv_to_perm, select_pivots
from repro.resilience.events import ResilienceEvent

__all__ = ["DistPanelLU", "distributed_tslu", "distributed_gepp_panel"]

#: Virtual rank standing in for stable storage (checkpointed block
#: replicas); a recovery fetch is counted as a message from it.
STORAGE_RANK = -1


@dataclass
class DistPanelLU:
    """Result of a distributed panel factorization.

    ``lu`` is the gathered packed factorization (``m x b``), ``piv``
    the LAPACK-style swap sequence, ``comm`` the full message log.
    ``recovered_ranks`` lists dead participants whose share of the
    tournament surviving ranks recomputed (lost-participant recovery).
    """

    lu: np.ndarray
    piv: np.ndarray
    comm: CommLog
    P: int
    recovered_ranks: tuple = ()


def _broadcast(log: CommLog, root: int, ranks: list[int], words: int) -> None:
    """Binomial-tree broadcast: ``ceil(log2 P)`` rounds, counted."""
    others = [r for r in ranks if r != root]
    have = [root]
    while others:
        log.new_round()
        senders = list(have)
        for s in senders:
            if not others:
                break
            dst = others.pop(0)
            log.send(s, dst, np.empty(words))
            have.append(dst)


def distributed_tslu(
    A: np.ndarray,
    P: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    leaf_kernel: str = "rgetf2",
    comm: CommLog | None = None,
    dead_ranks: tuple = (),
) -> DistPanelLU:
    """Tournament-pivoting LU of a distributed ``m x b`` panel.

    *comm* supplies the channel — pass
    ``CommLog(fault_plan=FaultPlan(...))`` to run the tournament over a
    lossy network; the pivots are unchanged (reliable transport), only
    the counted traffic grows by the retransmissions.

    *dead_ranks* models lost participants: each dead rank's *buddy*
    (the next surviving rank, cyclically) fetches the dead rank's block
    from stable storage (counted as a message from the virtual rank
    :data:`STORAGE_RANK`), recomputes its leaf candidates, and stands
    in for it at every tree merge, broadcast and row exchange.  The
    candidate data is identical, so the pivots — and the factors — are
    exactly those of a fault-free run; only the message routing and the
    per-survivor work change.  Recoveries are logged as ``rank_loss``
    events on ``comm.events`` and reported in ``recovered_ranks``.
    """
    A = np.asarray(A, dtype=float)
    m, b = A.shape
    if m < b:
        raise ValueError(f"panel must be tall, got {A.shape}")
    dist = RowBlocks(m, P)
    log = comm if comm is not None else CommLog()
    local = dist.scatter(A)
    ranks = dist.active_ranks

    dead = tuple(sorted(set(int(r) for r in dead_ranks)))
    unknown = [r for r in dead if r not in ranks]
    if unknown:
        raise ValueError(f"dead_ranks {unknown} not among active ranks {ranks}")
    alive = [r for r in ranks if r not in dead]
    if not alive:
        raise ValueError("all ranks dead: nothing can recover the panel")

    def buddy(r: int) -> int:
        """The next surviving rank after *r*, cyclically."""
        pos = ranks.index(r)
        for off in range(1, len(ranks) + 1):
            cand = ranks[(pos + off) % len(ranks)]
            if cand in alive:
                return cand
        raise AssertionError("unreachable: alive is non-empty")

    owner = {r: (buddy(r) if r in dead else r) for r in ranks}

    # Leaves: local GEPP chooses up to b candidate rows (no
    # communication for survivors; a dead rank's buddy first fetches
    # the lost block from stable storage).
    cand_rows: dict[int, np.ndarray] = {}
    cand_gidx: dict[int, np.ndarray] = {}
    if dead:
        log.new_round()
    for r in ranks:
        block = local[r]
        if r in dead:
            log.send(STORAGE_RANK, owner[r], np.empty(block.size))
            log.events.append(
                ResilienceEvent(
                    "rank_loss",
                    task=f"rank{r}",
                    detail=(
                        f"rank {r} lost; rank {owner[r]} fetched its block "
                        f"({block.size} words) and recomputed its candidates"
                    ),
                    value=float(r),
                )
            )
        sel = select_pivots(block, leaf_kernel)
        cand_rows[r] = block[sel].copy()
        cand_gidx[r] = dist.bounds(r)[0] + sel

    # Tree reduction: one message round per level.  Slots of dead ranks
    # are serviced by their buddies — the reduction *shape* (and hence
    # the candidate merge order and the pivots) is unchanged.
    for level in reduction_schedule(len(ranks), tree):
        log.new_round()
        for dst_pos, src_pos in level:
            dst = ranks[dst_pos]
            rows = [cand_rows[dst]]
            gidx = [cand_gidx[dst]]
            for p in src_pos:
                src = ranks[p]
                if src == dst:
                    continue
                log.send(
                    owner[src], owner[dst], np.empty(cand_rows[src].size + cand_gidx[src].size)
                )
                rows.append(cand_rows[src])
                gidx.append(cand_gidx[src])
            stacked = np.vstack(rows)
            sidx = np.concatenate(gidx)
            work = stacked.copy()
            piv = getf2(work)
            sel = piv_to_perm(piv, stacked.shape[0])[: min(stacked.shape[0], b)]
            cand_rows[dst] = stacked[sel].copy()
            cand_gidx[dst] = sidx[sel]

    root = ranks[0]
    pivots = cand_gidx[root]  # global row indices, in pivot order

    # Root factors the pivot block and broadcasts U_kk + the pivot list
    # to the survivors (a dead rank's share of the panel now lives with
    # its buddy, so only survivors participate).
    Ukk_block = cand_rows[root].copy()
    getf2_nopiv(Ukk_block)
    _broadcast(log, owner[root], alive, words=b * b + len(pivots))

    # Apply the swaps on the gathered matrix; rows that cross ranks are
    # exchanged pairwise in one concurrent round.
    out = A.copy()
    piv_seq = perm_from_piv_rows(pivots, m)
    log.new_round()
    for i in range(len(piv_seq)):
        p = int(piv_seq[i])
        if p != i:
            o1, o2 = owner[dist.owner(i)], owner[dist.owner(p)]
            if o1 != o2:
                log.send(o2, o1, np.empty(b))
                log.send(o1, o2, np.empty(b))
            out[[i, p]] = out[[p, i]]

    # Top block holds the pivot rows: factor without pivoting; the rest
    # of the rows become L by local triangular solves (no communication).
    getf2_nopiv(out[:b])
    trsm_runn(out[:b], out[b:])
    return DistPanelLU(lu=out, piv=piv_seq, comm=log, P=len(ranks), recovered_ranks=dead)


def distributed_gepp_panel(A: np.ndarray, P: int = 4) -> DistPanelLU:
    """Classic partial-pivoting panel on a distributed ``m x b`` panel.

    Column by column: a binomial max-reduction to rank 0 (one round), a
    pivot-row broadcast (log-P rounds), a cross-rank swap if needed,
    then the local rank-1 updates — the per-column synchronization
    pattern whose cost motivates TSLU.
    """
    A = np.asarray(A, dtype=float)
    m, b = A.shape
    if m < b:
        raise ValueError(f"panel must be tall, got {A.shape}")
    dist = RowBlocks(m, P)
    log = CommLog()
    ranks = dist.active_ranks
    out = A.copy()
    piv = np.arange(b, dtype=np.int64)

    for j in range(b):
        # Max-reduction: each rank proposes (|value|, row); binomial tree.
        log.new_round()
        survivors = list(ranks)
        while len(survivors) > 1:
            nxt = []
            for i in range(0, len(survivors), 2):
                if i + 1 < len(survivors):
                    log.send(survivors[i + 1], survivors[i], np.empty(2))
                nxt.append(survivors[i])
            survivors = nxt
        p = j + int(np.argmax(np.abs(out[j:, j])))
        piv[j] = p
        # Pivot decision + pivot row broadcast to every rank.
        _broadcast(log, ranks[0], ranks, words=b - j + 1)
        if p != j:
            o1, o2 = dist.owner(j), dist.owner(p)
            if o1 != o2:
                log.new_round()
                log.send(o2, o1, np.empty(b))
                log.send(o1, o2, np.empty(b))
            out[[j, p]] = out[[p, j]]
        if out[j, j] != 0.0:
            out[j + 1 :, j] /= out[j, j]
            if j + 1 < b:
                out[j + 1 :, j + 1 :] -= np.outer(out[j + 1 :, j], out[j, j + 1 :])
    return DistPanelLU(lu=out, piv=piv, comm=log, P=len(ranks))
