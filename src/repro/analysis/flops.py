"""Closed-form floating-point operation counts.

Used in three roles:

* :data:`KERNELS` prices every task: :meth:`Cost.of
  <repro.runtime.task.Cost.of>` fills a task's flops and words from its
  kernel name and dimensions, so the simulated machine can price
  paper-scale problems (a name outside the table is a ``KeyError``);
* the benchmark harness converts simulated makespans into GFLOP/s with
  the *standard* algorithm counts (``2/3 n³`` for LU, ``2mn² - 2n³/3``
  for QR), matching how the paper normalizes its plots — the extra
  flops communication-avoiding algorithms perform are charged as time
  but not credited as useful work;
* tests cross-check the kernels' runtime flop counters against them.

All counts are leading-order LAPACK conventions for real double
precision (a multiply-add pair is two flops).
"""

from __future__ import annotations

__all__ = [
    "KERNELS",
    "gemm_flops",
    "trsm_left_flops",
    "trsm_right_flops",
    "lu_panel_flops",
    "lu_flops",
    "qr_panel_flops",
    "qr_flops",
    "larfb_flops",
    "tpqrt_ts_flops",
    "tpqrt_tt_flops",
    "tpmqrt_flops",
    "tstrf_flops",
    "ssssm_flops",
    "tslu_extra_flops",
    "tsqr_tree_flops",
]


def gemm_flops(m: int, n: int, k: int) -> float:
    """``C (m x n) -= A (m x k) @ B (k x n)``."""
    return 2.0 * m * n * k


def trsm_left_flops(k: int, n: int) -> float:
    """Unit-lower left solve of ``k x k`` against ``k x n`` (task U)."""
    return float(k) * (k - 1) * n


def trsm_right_flops(m: int, k: int) -> float:
    """Upper right solve of ``m x k`` against ``k x k`` (task L)."""
    return float(m) * k * k


def lu_panel_flops(m: int, n: int) -> float:
    """GEPP of an ``m x n`` panel (``m >= n``): ``m n² - n³/3``."""
    return float(m) * n * n - n**3 / 3.0


def lu_flops(m: int, n: int) -> float:
    """Standard LU count for an ``m x n`` matrix (``n³·2/3`` when square).

    ``m n² - n³/3`` for ``m >= n`` — the normalization the paper's
    GFLOP/s plots use for ``dgetrf``-class routines.
    """
    if m >= n:
        return float(m) * n * n - n**3 / 3.0
    return float(n) * m * m - m**3 / 3.0


def qr_panel_flops(m: int, n: int) -> float:
    """Householder QR of an ``m x n`` panel (``m >= n``): ``2mn² - 2n³/3``."""
    return 2.0 * m * n * n - 2.0 * n**3 / 3.0


def qr_flops(m: int, n: int) -> float:
    """Standard Householder QR count (factor only): ``2mn² - 2n³/3``."""
    if m >= n:
        return 2.0 * m * n * n - 2.0 * n**3 / 3.0
    return 2.0 * n * m * m - 2.0 * m**3 / 3.0


def larfb_flops(m: int, n: int, k: int) -> float:
    """Apply a ``k``-reflector block to ``m x n``: ``4mnk`` (+ ``k²n``)."""
    return 4.0 * m * n * k + float(k) * k * n


def tpqrt_ts_flops(m: int, b: int) -> float:
    """Triangular-on-top QR with a dense ``m x b`` bottom: ``~3mb²``.

    ``2mb²`` for the reflections plus ``mb²`` for accumulating ``T``.
    """
    return 3.0 * m * b * b


def tpqrt_tt_flops(b: int) -> float:
    """Triangular-triangular merge (TSQR tree node): ``~(5/3) b³``.

    ``2b³/3`` for the structured reflections plus ``b³`` for
    accumulating ``T`` (``2b³/3`` for the ``V^T v`` products and
    ``b³/3`` for the triangular multiplies).
    """
    return 5.0 * float(b) ** 3 / 3.0


def tpmqrt_flops(m: int, n: int, b: int) -> float:
    """Apply a tpqrt block reflector to ``[b x n; m x n]``: ``4mnb + b²n``."""
    return 4.0 * m * n * b + float(b) * b * n


def tstrf_flops(m: int, b: int) -> float:
    """Incremental-pivoting LU of ``[b x b tri; m x b]``: ``~mb²``."""
    return float(m) * b * b


def ssssm_flops(m: int, n: int, b: int) -> float:
    """Replay a tstrf elimination on ``[b x n; m x n]``: ``2mnb``."""
    return 2.0 * m * n * b


def tslu_extra_flops(m: int, b: int, tr: int, binary: bool = True) -> float:
    """Extra flops TSLU performs over plain GEPP of an ``m x b`` panel.

    The preprocessing GEPP at the leaves (``m b² - b³/3`` total) plus
    the tree merges (``tr - 1`` GEPPs of ``2b x b`` stacks for any tree
    shape, ``~5b³/3`` each) — the redundant work the paper trades for
    fewer synchronizations.  The top ``b x b`` block is then factored
    again (``2b³/3``).
    """
    leaves = float(m) * b * b - b**3 / 3.0
    merges = (tr - 1) * (2.0 * b * b * b - b**3 / 3.0)
    refactor = 2.0 * b**3 / 3.0
    return leaves + merges + refactor


def tsqr_tree_flops(b: int, tr: int) -> float:
    """Flops in the merge levels of a TSQR reduction over ``tr`` leaves."""
    return (tr - 1) * tpqrt_tt_flops(b)


def _panel_words(m: int, n: int, k: int) -> float:
    return 2.0 * m * n  # the panel, read and written once


def _apply_words(m: int, n: int, k: int) -> float:
    return 2.0 * m * n + m * k  # the updated tile both ways plus the reflectors / multipliers


def _gemm_words(m: int, n: int, k: int) -> float:
    return 2.0 * m * n + m * k + k * n


def _stacked_words(m: int, n: int, k: int) -> float:
    return 2.0 * m * n + n * n  # a dense tile under an n x n triangle


def _no_flops(m: int, n: int, k: int) -> float:
    return 0.0


def _mn(flops):
    """A closed form of ``(m, n)`` alone, as a table entry of ``(m, n, k)``."""
    return lambda m, n, k: flops(m, n)


#: The one kernel table: cost-kernel name -> ``(flops, words)``, each a
#: closed form of the ``Cost`` dimensions ``(m, n, k)`` for one unit
#: operation.  ``words`` is the default traffic of the kernel's operands;
#: a site with more (row swaps riding on a ``trsm``) adds to it.
KERNELS = {
    # BLAS3 updates.
    "gemm": (gemm_flops, _gemm_words),
    "trsm_runn": (lambda m, n, k: trsm_right_flops(m, k), lambda m, n, k: 2.0 * m * k + k * k),
    "trsm_llnu": (lambda m, n, k: trsm_left_flops(k, n), lambda m, n, k: 2.0 * k * n + k * k),
    "larfb": (larfb_flops, _apply_words),
    # Panel and leaf factorizations.
    "getf2": (_mn(lu_flops), _panel_words),
    "rgetf2": (_mn(lu_flops), _panel_words),
    "getrf_panel": (_mn(lu_flops), _panel_words),
    "getrf_tile": (_mn(lu_flops), _panel_words),
    "geqr2": (_mn(qr_flops), _panel_words),
    "geqr3": (_mn(qr_flops), _panel_words),
    "geqrt": (_mn(qr_flops), _panel_words),
    "geqrf_panel": (_mn(qr_flops), _panel_words),
    "geqrt_tile": (_mn(qr_flops), _panel_words),
    # Tournament merge and the pivot block's refactorization.
    "gepp_merge": (lambda m, n, k: lu_panel_flops(m, min(m, n)), _panel_words),
    "getf2_nopiv": (lambda m, n, k: lu_panel_flops(m, min(m, n)), _panel_words),
    # Structured tree / tile kernels.
    "tpqrt_ts": (_mn(tpqrt_ts_flops), _stacked_words),
    "tpqrt_tt": (lambda m, n, k: tpqrt_tt_flops(n), lambda m, n, k: 3.0 * n * n),
    "tpmqrt": (tpmqrt_flops, lambda m, n, k: 4.0 * k * n + k * k),
    "tsmqr_tile": (tpmqrt_flops, _apply_words),
    "tstrf": (_mn(tstrf_flops), _stacked_words),
    "gessm": (lambda m, n, k: trsm_left_flops(k, n), _apply_words),
    "ssssm": (ssssm_flops, _gemm_words),
    # Pure data movement: priced by words alone.
    "laswp": (_no_flops, _panel_words),
    "copy": (_no_flops, _panel_words),
}
