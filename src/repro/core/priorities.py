"""Static task priorities encoding the paper's look-ahead scheduling.

The scheduler pops the highest-priority *ready* task, so priorities
shape the schedule without ever violating dependencies.  The paper's
rule ("after factoring panel K, the update of block column K+1 has the
highest priority and is scheduled next; then the factorization of
panel K+1") is encoded by giving every task an *era* — the panel
iteration it unblocks — and ranking task classes within an era.

``lookahead`` ablation values:

* ``0`` — no look-ahead: tasks are ranked purely by their own
  iteration; updates of all trailing columns are equal.
* ``1`` — the paper's setting: updates of block column ``K+1`` (and
  hence panel ``K+1``) outrank the rest of iteration K's updates.
* ``-1`` (infinite) — updates are ranked by target column, fully
  left-first (deepest pipelining).
"""

from __future__ import annotations

__all__ = ["task_priority"]

# Rank of task classes within an era; panel work on the critical path
# always comes first.  Boosted U/S tasks (the look-ahead window) use
# ranks 13/12, between the panel tasks and the ordinary updates.
_RANK = {"P": 15.0, "F": 14.0, "L": 11.0, "U": 10.0, "S": 8.0, "X": 1.0}
_BOOST = {"U": 13.0, "S": 12.0}
_ERA_STRIDE = 32.0


def task_priority(
    kind: str,
    K: int,
    J: int | None = None,
    lookahead: int = 1,
    n_cols: int = 1,
) -> float:
    """Priority for a task of class *kind* at iteration *K* on column *J*.

    Larger is scheduled earlier among ready tasks.  *kind* is one of
    ``P`` (TSLU/TSQR tree node), ``F`` (panel finalize), ``L``, ``U``,
    ``S``, ``X``.  *J* is the target block column for U/S tasks.

    With ``lookahead >= 1``, updates within the look-ahead window
    (``J <= K + lookahead``) stay in era ``K`` with boosted ranks —
    they run right after the panel; the remaining updates are demoted
    to era ``K + 1`` so that panel ``K+1`` (and the next window)
    outranks them, which is the paper's schedule.
    """
    rank = _RANK[kind]
    if kind in ("U", "S") and J is not None:
        if lookahead < 0:
            era = J  # rank strictly by the column the task unblocks
        elif lookahead >= 1 and J <= K + lookahead:
            era = K
            rank = _BOOST[kind]
        elif lookahead >= 1:
            era = K + 1
            rank -= (J - K) / (n_cols + 1.0)
        else:  # lookahead == 0: plain iteration ordering
            era = K
            rank -= (J - K) / (n_cols + 1.0)
    else:
        era = K
    return -era * _ERA_STRIDE + rank
