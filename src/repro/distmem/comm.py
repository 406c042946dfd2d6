"""Counting communication channel.

:mod:`repro.distmem.ledger` sends the size of every message a
distributed run would exchange through :class:`CommLog`, which records
it.  Communication *time* is evaluated afterwards under an
alpha-beta model with per-round latency: messages in the same round
(tree level) overlap, so a round costs
``alpha + beta * max_words_into_one_rank``.

Resilience: with a :class:`~repro.resilience.faults.FaultPlan` plugged
in (``CommLog(fault_plan=...)``), the channel becomes lossy — messages
are dropped or corrupted per the plan's seeded rates — and the log
models a *reliable transport* on top: a dropped message times out and
is retransmitted, a corrupted one fails its checksum and is
retransmitted, and the extra traffic is counted in the alpha-beta
time.  A message that keeps failing past ``max_retransmits`` raises a
structured :class:`~repro.resilience.recovery.RuntimeFailure`.
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

    ``fault_plan`` makes the channel lossy (see the module docstring);
    ``events`` then logs one entry per drop/corruption, and
    ``n_retransmits`` counts the recovery traffic (also visible as
    extra :class:`Message` records in the same round).
    """

    messages: list[Message] = field(default_factory=list)
    _round: int = 0
    fault_plan: object | None = None
    max_retransmits: int = 5
    events: list[ResilienceEvent] = field(default_factory=list)
    n_drops: int = 0
    n_corruptions: int = 0
    n_retransmits: int = 0
    _seq: int = 0

    def new_round(self) -> int:
        self._round += 1
        return self._round

    def send(self, src: int, dst: int, payload: np.ndarray | int | float) -> None:
        """Record a transfer of *payload* from rank *src* to rank *dst*.

        With a fault plan, models the reliable transport: each
        drop/corruption verdict costs one retransmission (an extra
        message in the round) until the copy goes through cleanly.
        """
        if src == dst:
            return  # local, no communication
        words = int(np.asarray(payload).size)
        attempts = 0
        while True:
            self._seq += 1
            self.messages.append(
                Message(src=src, dst=dst, words=words, round_id=self._round)
            )
            plan = self.fault_plan
            if plan is None:
                return
            verdict = plan.on_message(src, dst, words, self._seq)
            if verdict is None:
                return
            if verdict == "drop":
                self.n_drops += 1
                detail = f"message {src}->{dst} dropped (timeout, retransmit)"
            else:
                self.n_corruptions += 1
                detail = f"message {src}->{dst} corrupted (checksum, retransmit)"
            self.events.append(
                ResilienceEvent(f"comm_{verdict}", task=f"{src}->{dst}", detail=detail)
            )
            attempts += 1
            if attempts > self.max_retransmits:
                from repro.resilience.recovery import RuntimeFailure

                raise RuntimeFailure(
                    f"message {src}->{dst} failed {attempts} consecutive "
                    f"transmissions ({words} words)",
                    task=f"{src}->{dst}",
                    failure_kind="comm",
                )
            self.n_retransmits += 1

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
