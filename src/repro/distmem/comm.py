"""Counting communication channel.

:mod:`repro.distmem.ledger` sends the size of every message a
distributed run would exchange through :class:`CommLog`, which records
it.  Communication *time* is evaluated afterwards under an
alpha-beta model with per-round latency: messages in the same round
(tree level) overlap, so a round costs
``alpha + beta * max_words_into_one_rank``.

The channel is reliable: the closed forms the ledger is checked against
(Demmel–Grigori–Hoemmen–Langou) price fault-free runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.resilience.events import ResilienceEvent

__all__ = ["AlphaBeta", "CommLog"]


@dataclass(frozen=True)
class AlphaBeta:
    """Latency-bandwidth communication model.

    ``alpha`` seconds per message round, ``beta`` seconds per word.
    """

    alpha: float = 1e-6
    beta: float = 1e-9


@dataclass
class Message:
    src: int
    dst: int
    words: int
    round_id: int


@dataclass
class CommLog:
    """Records every rank-to-rank transfer, grouped into rounds.

    A *round* is a synchronization step: the tree level in TSLU/TSQR,
    or one column's pivot reduction in the classic panel.  Messages in
    one round are assumed concurrent; receiving is serialized per rank.
    ``events`` logs the run's ``rank_loss`` recoveries.
    """

    messages: list[Message] = field(default_factory=list)
    _round: int = 0
    events: list[ResilienceEvent] = field(default_factory=list)

    def new_round(self) -> int:
        self._round += 1
        return self._round

    def send(self, src: int, dst: int, payload: np.ndarray | int | float) -> None:
        """Record a transfer of *payload* from rank *src* to rank *dst*."""
        if src == dst:
            return  # local, no communication
        words = int(np.asarray(payload).size)
        self.messages.append(Message(src=src, dst=dst, words=words, round_id=self._round))

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    @property
    def n_rounds(self) -> int:
        return len({m.round_id for m in self.messages})

    @property
    def total_words(self) -> int:
        return sum(m.words for m in self.messages)

    def time(self, model: AlphaBeta) -> float:
        """Alpha-beta time: per round, latency + the busiest receiver."""
        rounds: dict[int, dict[int, int]] = {}
        for m in self.messages:
            rounds.setdefault(m.round_id, {}).setdefault(m.dst, 0)
            rounds[m.round_id][m.dst] += m.words
        total = 0.0
        for per_dst in rounds.values():
            total += model.alpha + model.beta * max(per_dst.values())
        return total
