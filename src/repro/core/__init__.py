"""The paper's contribution: multithreaded communication-avoiding LU/QR.

``tslu`` / ``tsqr``
    Tall-and-skinny panel factorizations via reduction trees
    (tournament pivoting for LU; stacked-R QR merges for QR).
``calu`` / ``caqr``
    The full factorizations of Algorithm 1 and Algorithm 2: panel by
    TSLU/TSQR, trailing updates as dynamically scheduled tasks with
    look-ahead priorities.
"""

from repro.core.calu import CALUFactorization, calu, calu_program
from repro.core.caqr import CAQRFactorization, caqr, caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind, reduction_schedule
from repro.core.tslu import tslu
from repro.core.tsqr import TSQRFactorization, tsqr

__all__ = [
    "BlockLayout",
    "CALUFactorization",
    "CAQRFactorization",
    "TSQRFactorization",
    "TreeKind",
    "calu",
    "calu_program",
    "caqr",
    "caqr_program",
    "reduction_schedule",
    "tslu",
    "tsqr",
]
