"""Out-of-core tall-skinny factorizations over a tile store.

The paper's *sequential* claim for CALU/CAQR panels — a flat reduction
tree moves the I/O-optimal number of words between fast and slow memory
— is exercised here for real: the panel lives in a
:class:`~repro.runtime.tilestore.TileStore` (typically the mmap-backed
spill plane, bigger than RAM), and the drivers stream it through fast
memory one leaf block at a time.

:func:`tsqr_ooc` and :func:`tslu_ooc` are not second implementations:
they stage the panel into the store, bind it as a
:class:`~repro.runtime.tilestore.StreamedBinding` and hand that to the
in-memory drivers' own :func:`~repro.core.driver.compile` (the ``TSQR``
/ ``TSLU`` records — CAQR/CALU over the one-panel layout — knob
validation included); this module only stages, binds and compiles,
and calls no kernel itself.  Every task loads the rows it slices and writes
back the block it updated, so what is resident is one window per running
task plus the ``O(tr · b²)`` workspace (candidates, ``T`` factors),
never the panel.

:func:`tsqr_ooc`
    Flat-tree TSQR with implicit ``Q``: each leaf block is loaded,
    QR-factored and written back; the merge task loads the root ``R``
    once, folds each leaf's ``R`` block into it (``tpqrt``) and writes
    both back.  The leaf reflectors stay packed in the stored panel.
    Traffic: ``2·m·b + 2·n_leaves·b²`` words
    (:func:`repro.analysis.io_model.panel_io_tsqr_flat`).

:func:`tslu_ooc`
    Tournament-pivoting TSLU.  The leaves stream the blocks read-only
    to elect candidate rows (candidates are tiny and stay in RAM through
    the reduction); the finalize gathers the at most ``2b`` rows its
    swaps touch, installs the pivot block the last election already
    factored and scatters them back; a final streaming pass applies
    the ``L`` triangular solves.
    Traffic: ``≈ 3·m·b`` words — the two-phase
    :func:`repro.analysis.io_model.panel_io_ca_flat` prediction.

Sources are an in-RAM array or a ``(shape, fill)`` generator pair
(``fill(r0, r1)`` returns rows ``[r0, r1)``), so panels larger than RAM
never exist as one array.  All streaming transfers go through
:meth:`TileStore.load`/:meth:`TileStore.store`, so measured traffic
lands in the global ``store_read_bytes``/``store_write_bytes`` counters
that ``tests/core/test_outofcore.py`` holds within 5 % of the I/O model.

Recovery: the finalize task is the in-memory one, so a corrupted
tournament is *replayed* from the stored panel (one extra streamed
read of the panel, pivots and factors bitwise those of a fault-free
run, reported as :attr:`OOCPanelLU.recovered`).  A panel
whose stored rows are themselves non-finite fails that replay, and the
run fails as it does in memory: a ``health`` :class:`RuntimeFailure`
naming the finalize task.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.driver import TSLU, TSQR, compile, validate_knobs
from repro.core.layout import BlockLayout, Chunk
from repro.core.panelloop import merged_chunks
from repro.core.trees import TreeKind
from repro.core.tsqr import TSQRFactorization
from repro.runtime.shm import working_dtype
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.tilestore import StreamedBinding, TileStore, open_store

__all__ = [
    "MatrixSource",
    "as_source",
    "plan_chunks",
    "tsqr_ooc",
    "tslu_ooc",
    "OOCTSQRFactorization",
    "OOCPanelLU",
    "DEFAULT_MEMORY_BUDGET",
]

#: Fast-memory budget assumed when neither ``tr`` nor ``memory_budget``
#: is given: conservative enough to matter, big enough not to crawl.
DEFAULT_MEMORY_BUDGET = 256 << 20


# ---------------------------------------------------------------------------
# Sources and planning
# ---------------------------------------------------------------------------


@dataclass
class MatrixSource:
    """A panel deliverable in row windows: ``fill(r0, r1)`` -> rows."""

    shape: tuple[int, int]
    fill: Callable[[int, int], np.ndarray]


def as_source(source) -> MatrixSource:
    """Coerce an ndarray, ``(shape, fill)`` pair or source to a source."""
    if isinstance(source, MatrixSource):
        return source
    if (
        isinstance(source, tuple)
        and len(source) == 2
        and not isinstance(source[0], np.ndarray)
        and callable(source[1])
    ):
        shape, fill = source
        m, n = (int(s) for s in shape)
        return MatrixSource(shape=(m, n), fill=fill)
    A = np.asarray(source)
    if A.ndim != 2:
        raise ValueError(f"panel source must be 2-D, got shape {A.shape}")
    return MatrixSource(shape=A.shape, fill=lambda r0, r1: A[r0:r1])


def _plan_tr(m: int, n: int, tr, memory_budget, n_workers: int, itemsize: int = 8) -> int:
    """The ``tr`` to hand the in-memory program: the caller's, or the
    one whose chunk height keeps the resident set — one loaded block
    per worker, the resident root/top block and one staging buffer —
    of *itemsize*-byte entries under *memory_budget* bytes."""
    if tr is not None:
        return tr
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
    block_row_bytes = n * n * itemsize
    per = max(1, budget // ((n_workers + 2) * block_row_bytes))  # block-rows per chunk
    return max(1, math.ceil(BlockLayout(m, n, b=n).M / per))


def plan_chunks(
    m: int,
    n: int,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    n_workers: int = 1,
) -> list[Chunk]:
    """Row-chunk a panel so streaming fits a fast-memory budget.

    With *tr* the chunking is exactly the in-memory drivers'; with
    *memory_budget* (bytes) *tr* is derived first (:func:`_plan_tr`).
    The partition itself is the panel loop's own
    (:func:`repro.core.panelloop.merged_chunks`).
    """
    tr = _plan_tr(m, n, tr, memory_budget, n_workers)
    return merged_chunks(BlockLayout(m, n, b=n), 0, tr)


def _stage_panel(store: TileStore, src: MatrixSource, chunks: list[Chunk], dtype) -> tuple:
    """Reserve a *dtype* store region for the panel and stream the
    source in, refusing a window with a non-finite entry before it is
    stored."""
    m, n = src.shape
    a_spec = store.reserve((m, n), dtype)
    for chunk in chunks:
        block = np.ascontiguousarray(src.fill(chunk.r0, chunk.r1), dtype=dtype)
        if block.shape != (chunk.rows, n):
            raise ValueError(
                f"source fill({chunk.r0}, {chunk.r1}) returned {block.shape}, "
                f"expected {(chunk.rows, n)}"
            )
        if not np.isfinite(block).all():
            raise ValueError(
                f"panel rows [{chunk.r0}, {chunk.r1}) contain non-finite entries"
            )
        store.store(TileStore.sub(a_spec, chunk.r0, chunk.r1), block)
    return a_spec


@dataclass(kw_only=True)
class StoreHandle:
    """Handle on a factored panel that lives in a tile store.

    The caller owns it: ``destroy()`` (or leaving the ``with`` block)
    tears down *tiles* when this run created it.
    """

    tiles: TileStore
    a_spec: tuple
    chunks: list[Chunk]
    owns_store: bool = True

    def panel(self) -> np.ndarray:
        """The factored panel, materialized in RAM (tests; small panels)."""
        return self.tiles.load(self.a_spec)

    def destroy(self) -> None:
        """Tear down the store if this result owns it."""
        if self.owns_store:
            self.tiles.destroy()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


@contextmanager
def _streamed(alg, source, tree, tr, memory_budget, store, spill_dir, n_workers):
    """Stage *source* into *store* (chunked as the in-memory drivers
    chunk), bind it, compile *alg* over the binding and run that:
    yields ``(plan, handle)`` — the
    driver's :class:`~repro.core.driver.Plan`, its knobs validated
    before a byte is staged, and the shape and :class:`StoreHandle`
    fields of the result.  The binding's window bound is the plan's
    tallest chunk (or the ``2b`` rows a merge or a finalize holds); a
    failed run destroys a store it made.
    """
    src = as_source(source)
    m, n = src.shape
    if m < n:
        raise ValueError(f"{alg.name.lower()} requires a tall panel (m >= n), got {src.shape}")
    dtype = working_dtype(source)  # as the in-memory drivers stage it
    tr = _plan_tr(m, n, tr, memory_budget, n_workers, dtype.itemsize)
    validate_knobs(tr=tr)
    chunks = plan_chunks(m, n, tr=tr)
    tiles, owned = open_store(store, spill_dir)
    try:
        a_spec = _stage_panel(tiles, src, chunks, dtype)
        binding = StreamedBinding(tiles, a_spec, max(2 * n, *(c.rows for c in chunks)))
        plan = compile(alg, binding, tr=tr, tree=tree)
        plan.run(ThreadedExecutor(max(1, n_workers)))
        handle = {"tiles": tiles, "a_spec": a_spec, "chunks": chunks, "owns_store": owned}
        yield plan, {"m": m, "n": n, **handle}
    except BaseException:
        if owned:
            tiles.destroy()
        raise


# ---------------------------------------------------------------------------
# Out-of-core TSQR and TSLU: the in-memory programs over a streamed binding
# ---------------------------------------------------------------------------


@dataclass
class OOCTSQRFactorization(StoreHandle, TSQRFactorization):
    """Result of :func:`tsqr_ooc`: a :class:`~repro.core.tsqr.
    TSQRFactorization` whose leaf reflectors stay packed in the stored
    panel — the applies stream them back in on demand, so the vectors
    being transformed are the only full-height arrays in RAM.
    """


def tsqr_ooc(
    source,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    store="mmap",
    spill_dir=None,
    n_workers: int = 2,
) -> OOCTSQRFactorization:
    """QR-factor a tall-skinny panel streamed through a tile store.

    *source* is an ndarray, a ``(shape, fill)`` pair or a
    :class:`MatrixSource`; it is staged into *store* window by window,
    then factored with the flat reduction tree without the panel ever
    being resident; a window with a NaN or Inf is a ``ValueError``
    before it is stored.  *tr* pins the chunking (parity with the in-memory
    driver); otherwise the chunk height comes from *memory_budget*.
    The caller owns the returned factorization and should ``destroy()``
    it (or use it as a context manager) once done with ``Q``.
    """
    with _streamed(
        TSQR, source, TreeKind.FLAT, tr, memory_budget, store, spill_dir, n_workers
    ) as (plan, handle):
        R = np.triu(plan.A[: handle["n"], :])
        return OOCTSQRFactorization(store=plan.state[0], R=R, tr=plan.tr, tree=plan.tree, **handle)


@dataclass
class OOCPanelLU(StoreHandle):
    """Result of :func:`tslu_ooc`: the packed ``LU`` lives in the store.

    ``piv`` is the LAPACK-style swap sequence, exactly as :func:`~
    repro.core.tslu.tslu` returns it.  ``lu()`` materializes the packed
    factors in RAM (tests / small panels); ``lu_rows`` streams a row
    window for consumers that stay out of core.  ``recovered`` says the
    tournament was found corrupted and replayed from the stored panel.
    """

    m: int
    n: int
    piv: np.ndarray
    recovered: bool = False

    lu = StoreHandle.panel

    def lu_rows(self, r0: int, r1: int) -> np.ndarray:
        return self.tiles.load(TileStore.sub(self.a_spec, r0, r1))


def tslu_ooc(
    source,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    store="mmap",
    spill_dir=None,
    n_workers: int = 2,
    tree: TreeKind = TreeKind.FLAT,
) -> OOCPanelLU:
    """LU-factor a tall-skinny panel streamed through a tile store.

    Same source/staging/ownership contract as :func:`tsqr_ooc`; the
    default tree is flat (the I/O-optimal sequential schedule — the
    candidate reduction happens in RAM either way).  Returns an
    :class:`OOCPanelLU`; ``lu()``/``piv`` reproduce
    :func:`repro.core.tslu.tslu`'s ``(lu, piv)`` bitwise on sizes both
    paths can run.
    """
    with _streamed(
        TSLU, source, tree, tr, memory_budget, store, spill_dir, n_workers
    ) as (plan, handle):
        ws = plan.state[0]
        return OOCPanelLU(piv=np.array(ws.piv), recovered=ws.recomputed, **handle)
