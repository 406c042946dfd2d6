"""Distributed-memory TSQR.

Each rank QR-factors its local row block, then ``R`` factors are merged
up a reduction tree with the structured ``[R; R]`` kernel; only the
``b(b+1)/2`` triangular entries travel.  With a binary tree this is the
communication-optimal parallel QR of Demmel et al. that the paper's
multicore TSQR descends from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trees import TreeKind, reduction_schedule
from repro.distmem.comm import CommLog, RowBlocks
from repro.kernels.qr import PANEL_KERNELS, geqr2
from repro.kernels.structured import tpqrt

__all__ = ["DistTSQR", "distributed_tsqr"]


@dataclass
class DistTSQR:
    """Result of a distributed TSQR: the final ``R`` plus the message log."""

    R: np.ndarray
    comm: CommLog
    P: int


def distributed_tsqr(
    A: np.ndarray,
    P: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    leaf_kernel: str = "geqr3",
) -> DistTSQR:
    """QR of a distributed tall-skinny ``m x b`` panel; returns ``R``."""
    A = np.asarray(A, dtype=float)
    m, b = A.shape
    if m < b:
        raise ValueError(f"panel must be tall, got {A.shape}")
    dist = RowBlocks(m, P)
    log = CommLog()
    local = dist.scatter(A)
    ranks = dist.active_ranks

    # Leaves: local QR (no communication); keep the b x b R factor.
    R: dict[int, np.ndarray] = {}
    for r in ranks:
        block = local[r].copy()
        (PANEL_KERNELS[leaf_kernel] if block.shape[0] >= b else geqr2)(block)
        rb = np.zeros((b, b))
        k = min(block.shape[0], b)
        rb[:k] = np.triu(block[:k, :])
        R[r] = rb

    # Tree merges: one round per level, triangular payloads only.
    tri_words = b * (b + 1) // 2
    for level in reduction_schedule(len(ranks), tree):
        log.new_round()
        for dst_pos, src_pos in level:
            dst = ranks[dst_pos]
            for p in src_pos:
                src = ranks[p]
                if src == dst:
                    continue
                log.send(src, dst, np.empty(tri_words))
                tpqrt(R[dst], R[src], bottom_triangular=True)
                R[src] = None  # consumed
    return DistTSQR(R=np.triu(R[ranks[0]]), comm=log, P=len(ranks))
