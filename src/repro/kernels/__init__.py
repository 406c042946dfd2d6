"""Flop-counted dense linear-algebra substrate.

This subpackage plays the role MKL/ACML/LAPACK play in the paper: it is
the sequential kernel layer every algorithm (communication-avoiding or
baseline) is built from.  Everything is implemented from scratch on top
of NumPy array primitives except two vendor kernel sets, as the paper's
tasks call the vendor's kernels.  Each task slot runs one fixed kernel;
nothing selects among them.  The QR set — ``geqrt``, ``lapack_tpqrt``
and ``lapack_tpmqrt``, thin wrappers of LAPACK's ``?geqrt`` /
``?tpqrt`` / ``?tpmqrt`` — runs at the TSQR/CAQR leaves, tree merges
and node updates.  ``lapack_getrf``, a thin wrapper of LAPACK's
``?getrf``, runs every TSLU tournament election, leaf and merge
(``kernels.lu.select_pivots(block)``; a leaf's ``Cost`` keeps the
paper's ``rgetf2``), and the panel's last election hands its factors
to the finalize; ``blas_trsm``, a thin wrapper of BLAS
``?trsm``, runs CALU's L and U tasks.  Each kernel reports its flop
count to :mod:`repro.counters`.

Naming follows LAPACK so the correspondence with the paper's Algorithm
listings is direct: ``getf2`` (BLAS2 LU), ``rgetf2`` (recursive LU, the
paper's panel kernel), ``lapack_getrf`` (LAPACK's LU, every
tournament election), ``geqr2`` (BLAS2 QR), ``geqr3`` (recursive QR,
the paper's panel kernel), ``geqrt`` (LAPACK's QR of one tile),
``larfg/larft/larfb`` (compact-WY Householder), ``tpqrt/tpmqrt``
(structured triangular-pentagonal QR, the TSQR tree kernel, on NumPy
and as ``lapack_tpqrt/lapack_tpmqrt``) and
``tstrf/ssssm`` (PLASMA's incremental-pivoting LU kernels).
"""

from repro.kernels.blas import blas_trsm, gemm, laswp, trsm_llnu, trsm_runn
from repro.kernels.lu import getf2, getrf, lapack_getrf, rgetf2
from repro.kernels.qr import (
    extract_v,
    geqr2,
    geqr3,
    geqrf,
    geqrt,
    larfb_left_t,
    larfg,
    larft,
)
from repro.kernels.structured import (
    TstrfOps,
    lapack_tpmqrt,
    lapack_tpqrt,
    ssssm_apply,
    tpmqrt_left_t,
    tpqrt,
    tstrf,
)

__all__ = [
    "TstrfOps",
    "blas_trsm",
    "extract_v",
    "gemm",
    "geqr2",
    "geqr3",
    "geqrf",
    "geqrt",
    "getf2",
    "getrf",
    "lapack_getrf",
    "lapack_tpmqrt",
    "lapack_tpqrt",
    "larfb_left_t",
    "larfg",
    "larft",
    "laswp",
    "rgetf2",
    "ssssm_apply",
    "tpmqrt_left_t",
    "tpqrt",
    "trsm_llnu",
    "trsm_runn",
    "tstrf",
]
