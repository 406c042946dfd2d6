"""Simulated distributed-memory substrate: count the messages.

CALU and CAQR were introduced for distributed memory (the paper's
Section II); the multicore adaptation inherits their reduction trees.
This subpackage prices the core drivers' own runs in that setting (no
factor is computed here): a panel's ``tr=P`` chunks are ``P`` ranks,
and every exchange the run's schedule implies goes through a counting
channel, so message counts, word volumes and alpha-beta communication
times are exact — no MPI needed (:mod:`repro.distmem.ledger`).

It exists to validate the communication-optimality claims end to end:

* distributed TSLU/TSQR with a binary tree needs ``ceil(log2 P)``
  message rounds per panel (optimal in parallel);
* the classic partial-pivoting panel needs one reduction round per
  *column* — ``b`` times more;
* with a flat tree the root ingests ``P - 1`` messages in one round
  (optimal in volume sequentially, latency-bound in parallel).
"""

from repro.distmem.comm import AlphaBeta, CommLog
from repro.distmem.ledger import (
    DistCALU,
    distributed_calu,
    distributed_gepp_panel,
    distributed_tslu,
    distributed_tsqr,
)

__all__ = [
    "AlphaBeta",
    "CommLog",
    "DistCALU",
    "distributed_calu",
    "distributed_gepp_panel",
    "distributed_tslu",
    "distributed_tsqr",
]
