"""The paper's contribution: multithreaded communication-avoiding LU/QR.

``tslu`` / ``tsqr``
    Tall-and-skinny panel factorizations via reduction trees
    (tournament pivoting for LU; stacked-R QR merges for QR).
``calu`` / ``caqr``
    The full factorizations of Algorithm 1 and Algorithm 2: panel by
    TSLU/TSQR, trailing updates as dynamically scheduled tasks with
    look-ahead priorities.

Each of the four is a submodule here, and ``repro.core.calu`` *is* that
submodule (so ``repro.core.calu.MIN_TASK_FLOPS`` patches the constant
the builder reads); the driver functions are ``repro.calu``,
``repro.caqr``, ``repro.tslu`` and ``repro.tsqr``.
"""

from repro.core.calu import CALUFactorization, calu_program
from repro.core.caqr import CAQRFactorization, caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind, reduction_schedule
from repro.core.tsqr import TSQRFactorization
from repro.core import calu, caqr, tslu, tsqr  # the submodules, by their own names

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
