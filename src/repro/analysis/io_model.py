"""Sequential memory-hierarchy traffic (the paper's other §II claim).

"With a flat reduction tree, the algorithms are optimal in the amount
of communication they perform in sequential, that is the amount of
data transferred between different levels of memory."  This module
gives closed-form slow-memory traffic (words moved between a fast
memory of ``W`` words and slow memory) for the panel strategies:

* classic partial pivoting re-touches the trailing panel on every
  column — ``~m b² / 2`` words once the panel exceeds the fast memory;
* TSLU/TSQR with a flat tree streams the panel once per phase plus
  ``O(b²)`` per leaf — ``~3 m b`` words for TSLU's two phases
  (tournament + factor), ``~2 m b`` for TSQR's single one.

These count traffic of a panel that already *is* in slow memory:
writing it there in the first place (the out-of-core drivers' staging
pass) is not part of any of them.

The ``~b/6``-fold separation mirrors the parallel ``O(b)`` message
separation of :mod:`repro.analysis.communication`.
"""

from __future__ import annotations

import math

__all__ = [
    "panel_io_classic",
    "panel_io_ca_flat",
    "panel_io_tsqr_flat",
    "predicted_panel_io",
    "lu_io_lower_bound",
    "blocked_lu_io",
    "panel_io_reduction_factor",
]


def panel_io_classic(m: int, b: int, fast_words: int) -> float:
    """Slow-memory words for a partial-pivoting panel of size ``m x b``.

    If the panel fits in fast memory it is read and written once.
    Otherwise every column's pivot search + rank-1 update streams the
    remaining panel: ``sum_j (m - j)(b - j) ~ m b² / 2`` reads plus the
    writes.
    """
    if m * b <= fast_words:
        return 2.0 * m * b
    reads = sum((m - j) * (b - j) for j in range(b))
    return float(reads) + m * b  # one final write-back of the factors


def _flat_leaves(m: int, b: int, fast_words: int) -> int:
    """Leaf count of a sequential flat-tree panel: leaves are whole
    ``b``-row blocks a third of fast memory tall — one loaded leaf, the
    resident root/pivot block and one staging buffer, the residency
    :func:`repro.core.outofcore.plan_chunks` budgets for one worker."""
    block_rows = b * max(1, fast_words // (3 * b * b))
    return math.ceil(m / block_rows)


def panel_io_ca_flat(m: int, b: int, fast_words: int) -> float:
    """Slow-memory words for a flat-tree TSLU panel of size ``m x b``.

    The two-phase form: the tournament streams the panel once (each
    leaf block read once) and the final panel factorization streams it
    once more (read + write against the pivot block), plus one
    ``b x b`` block per leaf — the candidates a leaf would spill, or,
    as :func:`repro.core.outofcore.tslu_ooc` does it (candidates stay
    in fast memory), the pivot block each leaf's ``L`` solve re-reads.
    Flat-tree TSQR has a single phase: :func:`panel_io_tsqr_flat`.
    """
    if m * b <= fast_words:
        return 2.0 * m * b
    tournament = m * b + _flat_leaves(m, b, fast_words) * b * b
    factor = 2.0 * m * b  # read + write the panel against the pivot block
    return tournament + factor


def panel_io_tsqr_flat(m: int, b: int, fast_words: int) -> float:
    """Slow-memory words for a flat-tree TSQR panel of size ``m x b``.

    One phase: every leaf block is read, QR-factored and written back
    (``2 m b``), and the merge re-reads and re-writes each leaf's
    ``b x b`` ``R`` block as it folds it into the root
    (``2 n_leaves b²``).
    """
    if m * b <= fast_words:
        return 2.0 * m * b
    return 2.0 * m * b + 2.0 * _flat_leaves(m, b, fast_words) * b * b


def predicted_panel_io(kind: str, m: int, b: int, fast_words: int) -> float:
    """Dispatch a panel-traffic prediction by strategy name.

    ``kind`` is ``"classic"``, ``"ca_flat"`` (streaming flat-tree
    TSLU) or ``"tsqr_flat"`` (streaming flat-tree TSQR).  This is the
    lookup the out-of-core benchmark uses to pair each measured
    byte count with its closed form.
    """
    table = {
        "classic": lambda: panel_io_classic(m, b, fast_words),
        "ca_flat": lambda: panel_io_ca_flat(m, b, fast_words),
        "tsqr_flat": lambda: panel_io_tsqr_flat(m, b, fast_words),
    }
    try:
        return table[kind]()
    except KeyError:
        raise ValueError(f"unknown panel I/O strategy {kind!r}") from None


def blocked_lu_io(m: int, n: int, b: int, fast_words: int, ca_panel: bool) -> float:
    """Total slow-memory traffic of a right-looking blocked LU.

    Panels via :func:`panel_io_classic` or :func:`panel_io_ca_flat`;
    each trailing update streams the trailing matrix once per iteration
    (reads + writes) plus the panel/row reads.
    """
    total = 0.0
    r = min(m, n)
    for k0 in range(0, r, b):
        bk = min(b, r - k0)
        mr = m - k0
        nr = n - k0 - bk
        panel = panel_io_ca_flat(mr, bk, fast_words) if ca_panel else panel_io_classic(mr, bk, fast_words)
        update = 2.0 * mr * nr + mr * bk + bk * nr if nr > 0 else 0.0
        total += panel + update
    return total


def lu_io_lower_bound(m: int, n: int, fast_words: int) -> float:
    """Hong-Kung-style lower bound on LU traffic: ``~ m n² / sqrt(8 W)``.

    (Irony-Toledo-Tiskin form, constants dropped to the standard
    ``1/sqrt(8W)``.)  Any correct LU moves at least this many words.
    """
    return float(m) * n * n / math.sqrt(8.0 * fast_words)


def panel_io_reduction_factor(m: int, b: int, fast_words: int) -> float:
    """Traffic ratio classic/CA for one panel (``~ b/6`` when streaming)."""
    ca = panel_io_ca_flat(m, b, fast_words)
    return panel_io_classic(m, b, fast_words) / ca if ca else float("inf")
