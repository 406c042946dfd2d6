"""The competitors the paper benchmarks against, built from scratch.

``lapack_lu`` / ``lapack_qr``
    BLAS2 ``getf2``/``geqr2`` (the paper's ``MKL_dgetf2`` /
    ``MKL_dgeqr2``) and blocked right-looking ``getrf``/``geqrf``
    (``MKL_dgetrf`` / ``MKL_dgeqrf`` / the ACML equivalents), as
    numeric drivers and as task graphs for the simulated machine.

``tiled_lu`` / ``tiled_qr``
    PLASMA 2.0-style tile algorithms (Buttari, Langou, Kurzak,
    Dongarra): tiled LU with *incremental pivoting* (``DGETRF`` /
    ``DTSTRF`` / ``DGESSM`` / ``DSSSSM``) and tiled QR (``DGEQRT`` /
    ``DTSQRT`` / ``DORMQR`` / ``DTSMQR``), again both numeric and as
    task graphs.
"""

from repro.baselines.lapack_lu import (
    build_getf2_graph,
    getf2_lu,
    getrf_lu,
    getrf_program,
)
from repro.baselines.lapack_qr import (
    build_geqr2_graph,
    geqr2_qr,
    geqrf_program,
    geqrf_qr,
)
from repro.baselines.tiled_lu import (
    TiledLU,
    tiled_lu,
    tiled_lu_program,
)
from repro.baselines.tiled_qr import (
    TiledQR,
    tiled_qr,
    tiled_qr_program,
)

__all__ = [
    "TiledLU",
    "TiledQR",
    "build_geqr2_graph",
    "build_getf2_graph",
    "geqr2_qr",
    "geqrf_program",
    "geqrf_qr",
    "getf2_lu",
    "getrf_lu",
    "getrf_program",
    "tiled_lu",
    "tiled_lu_program",
    "tiled_qr",
    "tiled_qr_program",
]
