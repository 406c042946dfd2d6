"""Out-of-core tall-skinny factorizations over a tile store.

The paper's *sequential* claim for CALU/CAQR panels — a flat reduction
tree moves the I/O-optimal number of words between fast and slow memory
— is exercised here for real: the panel lives in a
:class:`~repro.runtime.tilestore.TileStore` (typically the mmap-backed
spill plane, bigger than RAM), and the drivers stream it through fast
memory one leaf block at a time.

Three entry points:

:func:`tsqr_ooc`
    Flat-tree TSQR with implicit ``Q``.  Each leaf block is loaded,
    QR-factored (``dgeqr3``) and written back; the running ``R`` stays
    resident and absorbs each leaf's ``R`` through a structured
    ``[R; R_i]`` merge (``tpqrt``), exactly the kernel sequence of the
    in-memory flat tree — so on sizes both paths can run, the factored
    panels are bitwise identical (``tests/core/test_outofcore.py``).
    Traffic: read ``m·b`` + write ``m·b`` words, once each.

:func:`tslu_ooc`
    Tournament-pivoting TSLU.  Pass 1 streams the blocks read-only to
    elect candidate rows (the tournament's leaves; candidates are tiny
    and stay in RAM through the reduction).  The finalize swaps the
    winners to the top with windowed row transfers replicating
    ``laswp``'s exact swap sequence, factors the pivot block, and a
    final streaming pass applies the ``L`` triangular solves.
    Traffic: ``≈ 3·m·b`` words — the :func:`repro.analysis.io_model.
    panel_io_ca_flat` prediction the out-of-core benchmark gates on.

:func:`direct_tsqr`
    The single-pass "Direct TSQR" variant (Benson, Gleich & Demmel):
    per-block QR, one small second-stage QR of the stacked ``R``
    factors, optional explicit ``Q`` reconstruction.  With ``want_q=
    False`` the panel is consumed *once* from its source and nothing is
    written back — the read-once regime for when only ``R`` (or a
    least-squares solve) is needed.

Sources are an in-RAM array or a ``(shape, fill)`` generator pair
(``fill(r0, r1)`` returns rows ``[r0, r1)``), so panels larger than RAM
never exist as one array.  All streaming transfers go through
:meth:`TileStore.load`/:meth:`TileStore.store`, so measured traffic
lands in the global ``store_read_bytes``/``store_write_bytes`` counters
that ``benchmarks/bench_outofcore.py`` compares against the I/O model.

Degradation ladder: the in-memory TSLU can repair or degrade a
corrupted tournament by re-reading the whole panel; out of core that
re-read is the dominant cost, so a corrupted tournament raises instead
(:class:`RuntimeError`) — rerun the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.flops import (
    lu_flops,
    lu_panel_flops,
    qr_flops,
    tpqrt_tt_flops,
    trsm_right_flops,
)
from repro.core.layout import BlockLayout, Chunk
from repro.core.trees import TreeKind, reduction_schedule
from repro.core.tslu import PanelWorkspace
from repro.kernels.blas import trsm_runn
from repro.kernels.lu import getf2_nopiv, perm_from_piv_rows
from repro.kernels.qr import extract_v, geqr2, geqr3, larfb_left_t, larft
from repro.kernels.structured import tpmqrt_left_t, tpqrt
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.ops import op_task, run_op
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.tilestore import HeapBinding, TileStore, open_store

__all__ = [
    "MatrixSource",
    "as_source",
    "plan_chunks",
    "tsqr_ooc",
    "tslu_ooc",
    "direct_tsqr",
    "OOCTSQRFactorization",
    "OOCPanelLU",
    "DirectTSQRFactorization",
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
    A = np.asarray(source, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"panel source must be 2-D, got shape {A.shape}")
    return MatrixSource(shape=A.shape, fill=lambda r0, r1: A[r0:r1])


def plan_chunks(
    m: int,
    n: int,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    n_workers: int = 1,
    merge_tail: bool = True,
) -> list[Chunk]:
    """Row-chunk a panel so streaming fits a fast-memory budget.

    With *tr* the chunking is exactly the in-memory drivers' (this is
    how the parity tests pin both paths to identical blocks).  With
    *memory_budget* (bytes) the chunk height is chosen so the resident
    set — one loaded block per worker, the resident root/top block and
    one staging buffer — stays under budget.  ``merge_tail`` applies
    the tail-merge policy TSQR shares with CALU
    (:func:`repro.core.calu.merged_chunks`); TSLU uses the plain
    partition, matching :meth:`BlockLayout.panel_chunks`.
    """
    from repro.core.calu import merged_chunks  # shared chunk policy

    layout = BlockLayout(m, n, b=n)
    if tr is None:
        budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
        resident = n_workers + 2
        block_row_bytes = n * n * np.dtype(np.float64).itemsize
        per = max(1, budget // (resident * block_row_bytes))  # block-rows per chunk
        tr = max(1, math.ceil(layout.M / per))
    chunks = merged_chunks(layout, 0, tr) if merge_tail else layout.panel_chunks(0, tr)
    return chunks


def _stage_panel(
    store: TileStore, src: MatrixSource, chunks: list[Chunk], check_finite: bool
) -> tuple:
    """Reserve a store region for the panel and stream the source in."""
    m, n = src.shape
    a_spec = store.reserve((m, n))
    for chunk in chunks:
        block = np.ascontiguousarray(src.fill(chunk.r0, chunk.r1), dtype=np.float64)
        if block.shape != (chunk.rows, n):
            raise ValueError(
                f"source fill({chunk.r0}, {chunk.r1}) returned {block.shape}, "
                f"expected {(chunk.rows, n)}"
            )
        if check_finite and not np.isfinite(block).all():
            raise ValueError(
                f"panel rows [{chunk.r0}, {chunk.r1}) contain non-finite entries"
            )
        store.store(TileStore.sub(a_spec, chunk.r0, chunk.r1), block)
    return a_spec


def _resolve_store(store, spill_dir):
    """Driver-side ``store=`` resolution (spill_dir only for mmap)."""
    kwargs = {"spill_dir": spill_dir} if store == "mmap" and spill_dir is not None else {}
    return open_store(store, **kwargs)


# ---------------------------------------------------------------------------
# Out-of-core TSQR (flat tree, implicit Q)
# ---------------------------------------------------------------------------


class _OOCQRState:
    """Resident state of one streaming TSQR run."""

    def __init__(self) -> None:
        self.Rtop: np.ndarray | None = None  # running n x n R factor
        self.leaf_T: dict[int, np.ndarray] = {}
        self.merge_T: list[np.ndarray] = []


def tsqr_ooc_program(
    store: TileStore,
    a_spec: tuple,
    chunks: list[Chunk],
    *,
    leaf_kernel: str = "geqr3",
) -> tuple[GraphProgram, _OOCQRState]:
    """Streaming program for one out-of-core flat-tree TSQR panel.

    Window *i* holds leaf *i* (load block, QR, write back) and, for
    ``i >= 1``, the merge folding its ``R`` into the resident root; a
    final epilogue window writes the root ``R`` back.  With the
    program's look-ahead of 1 at most three leaf blocks are in flight,
    so fast memory stays bounded by the planner's resident-set model.
    The merges replay the in-memory flat tree's ``tpqrt`` calls in the
    same order on the same values, which is what makes the two paths
    bitwise identical.
    """
    _, _, (m, n), _ = a_spec
    bk = n
    state = _OOCQRState()
    sub = TileStore.sub

    def _leaf_fn(chunk: Chunk):
        def fn() -> None:
            spec = sub(a_spec, chunk.r0, chunk.r1)
            W = store.load(spec)
            if leaf_kernel == "geqr3":
                T = geqr3(W)
            else:
                tau = geqr2(W)
                T = larft(extract_v(W), tau)
            state.leaf_T[chunk.index] = T
            store.store(spec, W)

        return fn

    def _merge_fn_qr(src: Chunk):
        def fn() -> None:
            if state.Rtop is None:
                state.Rtop = store.load(sub(a_spec, chunks[0].r0, chunks[0].r0 + bk))
            spec = sub(a_spec, src.r0, src.r0 + bk)
            B = store.load(spec)
            T = tpqrt(state.Rtop, B, bottom_triangular=True)
            state.merge_T.append(T)
            store.store(spec, B)

        return fn

    def _flush_fn():
        def fn() -> None:
            if state.Rtop is None:  # single chunk: no merges ran
                state.Rtop = store.load(sub(a_spec, chunks[0].r0, chunks[0].r0 + bk))
            else:
                store.store(sub(a_spec, chunks[0].r0, chunks[0].r0 + bk), state.Rtop)

        return fn

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        if window == len(chunks):
            tracker.add_task(
                graph,
                "flushR",
                TaskKind.P,
                Cost("store_flush", m=bk, n=bk, flops=0, words=1.0 * bk * bk),
                fn=_flush_fn(),
                reads=[("oocroot",)],
                writes=[("oocroot",), ("oocblk", chunks[0].index)],
            )
            return
        chunk = chunks[window]
        tracker.add_task(
            graph,
            f"P[0]leaf{chunk.index}",
            TaskKind.P,
            Cost(
                leaf_kernel,
                m=chunk.rows,
                n=bk,
                flops=qr_flops(chunk.rows, bk),
                words=2.0 * chunk.rows * bk,
            ),
            fn=_leaf_fn(chunk),
            reads=[("oocblk", chunk.index)],
            writes=[("oocblk", chunk.index)],
        )
        if window >= 1:
            # RAW on both touched blocks, WAW on the root chains the
            # merges in leaf order — the in-memory flat merge's loop
            # order, load-bearing for bitwise parity.
            tracker.add_task(
                graph,
                f"P[0]merge0<{chunk.index}",
                TaskKind.P,
                Cost(
                    "tpqrt_tt",
                    m=2 * bk,
                    n=bk,
                    k=bk,
                    flops=tpqrt_tt_flops(bk),
                    words=3.0 * bk * bk,
                ),
                fn=_merge_fn_qr(chunk),
                reads=[("oocblk", chunks[0].index), ("oocblk", chunk.index)],
                writes=[("oocroot",), ("oocblk", chunk.index)],
            )

    program = GraphProgram(f"tsqr_ooc{m}x{n}", len(chunks) + 1, emit, lookahead=1)
    return program, state


@dataclass
class OOCTSQRFactorization:
    """Result of :func:`tsqr_ooc`: ``A = Q R`` with ``Q`` implicit *in
    the store* (the factored panel holds the leaf reflectors; merge
    ``V_b`` factors are the written-back block tops).

    Duck-compatible with :class:`~repro.core.tsqr.TSQRFactorization`
    (``R``, ``apply_qt``, ``apply_q``, ``q_explicit``, ``solve_ls``) —
    the applies stream the reflector blocks back in on demand, so the
    vectors being transformed are the only full-height arrays in RAM.
    """

    m: int
    n: int
    store: TileStore
    a_spec: tuple
    chunks: list[Chunk]
    leaf_T: dict[int, np.ndarray]
    merge_T: list[np.ndarray]
    R: np.ndarray
    tr: int
    tree: TreeKind = TreeKind.FLAT
    owns_store: bool = True

    def _leaf_V(self, chunk: Chunk) -> np.ndarray:
        return extract_v(self.store.load(TileStore.sub(self.a_spec, chunk.r0, chunk.r1)))

    def _merge_Vb(self, src: Chunk) -> np.ndarray:
        return np.triu(self.store.load(TileStore.sub(self.a_spec, src.r0, src.r0 + self.n)))

    def apply_qt(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q^T C`` (``C`` is ``(m, p)`` or ``(m,)``)."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        for chunk in self.chunks:
            larfb_left_t(self._leaf_V(chunk), self.leaf_T[chunk.index], W[chunk.r0 : chunk.r1])
        top0, bk = self.chunks[0].r0, self.n
        for src, T in zip(self.chunks[1:], self.merge_T, strict=True):
            tpmqrt_left_t(
                self._merge_Vb(src), T, W[top0 : top0 + bk], W[src.r0 : src.r0 + bk]
            )
        return W[:, 0] if squeeze else W

    def apply_q(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q C`` (``C`` is ``(m, p)`` or ``(m,)``)."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        top0, bk = self.chunks[0].r0, self.n
        for src, T in zip(
            reversed(self.chunks[1:]), reversed(self.merge_T), strict=True
        ):
            tpmqrt_left_t(
                self._merge_Vb(src),
                T,
                W[top0 : top0 + bk],
                W[src.r0 : src.r0 + bk],
                transpose=False,
            )
        for chunk in self.chunks:
            V, T = self._leaf_V(chunk), self.leaf_T[chunk.index]
            Cv = W[chunk.r0 : chunk.r1]
            Wk = T @ (V.T @ Cv)
            Cv -= V @ Wk
        return W[:, 0] if squeeze else W

    def q_explicit(self) -> np.ndarray:
        """The thin ``Q`` (``m x n``) — materializes in RAM; small panels only."""
        E = np.zeros((self.m, self.n))
        np.fill_diagonal(E, 1.0)
        return self.apply_q(E)

    def solve_ls(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - rhs||`` via ``Q R``."""
        import scipy.linalg

        y = self.apply_qt(rhs)
        return scipy.linalg.solve_triangular(self.R, y[: self.n])

    def panel(self) -> np.ndarray:
        """The factored panel, materialized in RAM (tests; small panels)."""
        return self.store.load(self.a_spec)

    def destroy(self) -> None:
        """Tear down the store if this factorization owns it."""
        if self.owns_store:
            self.store.destroy()

    def __enter__(self) -> "OOCTSQRFactorization":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


def tsqr_ooc(
    source,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    store="mmap",
    spill_dir=None,
    n_workers: int = 2,
    leaf_kernel: str = "geqr3",
    check_finite: bool = True,
) -> OOCTSQRFactorization:
    """QR-factor a tall-skinny panel streamed through a tile store.

    *source* is an ndarray, a ``(shape, fill)`` pair or a
    :class:`MatrixSource`; it is staged into *store* window by window,
    then factored with the flat reduction tree without the panel ever
    being resident.  *tr* pins the chunking (parity with the in-memory
    driver); otherwise the chunk height comes from *memory_budget*.
    The caller owns the returned factorization and should ``destroy()``
    it (or use it as a context manager) once done with ``Q``.
    """
    src = as_source(source)
    m, n = src.shape
    if m < n:
        raise ValueError(f"tsqr requires a tall panel (m >= n), got {src.shape}")
    chunks = plan_chunks(
        m, n, tr=tr, memory_budget=memory_budget, n_workers=n_workers, merge_tail=True
    )
    store_obj, owned = _resolve_store(store, spill_dir)
    try:
        a_spec = _stage_panel(store_obj, src, chunks, check_finite)
        program, state = tsqr_ooc_program(
            store_obj, a_spec, chunks, leaf_kernel=leaf_kernel
        )
        executor = ThreadedExecutor(max(1, n_workers))
        executor.run(program)
        assert state.Rtop is not None
        R = np.triu(state.Rtop)
    except BaseException:
        if owned:
            store_obj.destroy()
        raise
    return OOCTSQRFactorization(
        m=m,
        n=n,
        store=store_obj,
        a_spec=a_spec,
        chunks=chunks,
        leaf_T=state.leaf_T,
        merge_T=state.merge_T,
        R=R,
        tr=len(chunks),
        owns_store=owned,
    )


# ---------------------------------------------------------------------------
# Out-of-core TSLU (tournament pivoting)
# ---------------------------------------------------------------------------


@dataclass
class OOCPanelLU:
    """Result of :func:`tslu_ooc`: the packed ``LU`` lives in the store.

    ``piv`` is the LAPACK-style swap sequence, exactly as :func:`~
    repro.core.tslu.tslu` returns it.  ``lu()`` materializes the packed
    factors in RAM (tests / small panels); ``lu_rows`` streams a row
    window for consumers that stay out of core.
    """

    m: int
    n: int
    store: TileStore
    a_spec: tuple
    chunks: list[Chunk]
    piv: np.ndarray
    degraded: bool = False
    owns_store: bool = True

    def lu(self) -> np.ndarray:
        return self.store.load(self.a_spec)

    def lu_rows(self, r0: int, r1: int) -> np.ndarray:
        return self.store.load(TileStore.sub(self.a_spec, r0, r1))

    def destroy(self) -> None:
        if self.owns_store:
            self.store.destroy()

    def __enter__(self) -> "OOCPanelLU":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


class _OOCLUState:
    """Resident state of one streaming TSLU run."""

    def __init__(self) -> None:
        self.U: np.ndarray | None = None  # factored top block (rows 0..r)
        self.piv: np.ndarray | None = None


def tslu_ooc_program(
    store: TileStore,
    a_spec: tuple,
    chunks: list[Chunk],
    tree: TreeKind = TreeKind.FLAT,
    *,
    leaf_kernel: str = "rgetf2",
    arity: int = 4,
) -> tuple[GraphProgram, PanelWorkspace, _OOCLUState]:
    """Streaming program for one out-of-core TSLU panel.

    Windows ``0..len(chunks)-1`` each stream one leaf block in
    (read-only) and elect its candidate pivot rows; window
    ``len(chunks)`` runs the in-RAM candidate reduction plus the
    finalize (windowed row swaps replicating ``laswp``'s sequence, then
    the pivot-block factorization); the last window streams the ``L``
    triangular solves block by block.  The candidate sets are ``Tr ·
    b`` rows — they stay in RAM whatever the panel height, which is the
    property that makes tournament pivoting out-of-core friendly.
    """
    _, _, (m, n), _ = a_spec
    bk = n
    r = min(bk, m)
    # The candidate slots live on the heap whatever the panel's store:
    # the tournament's workspace is the part that always fits in RAM.
    heap = HeapBinding()
    slots = [c.index for c in chunks]
    root = slots[0]
    ws = PanelWorkspace()
    ws.allocate(heap, np.dtype(a_spec[3]), slots, bk, r)
    state = _OOCLUState()
    sub = TileStore.sub

    def _leaf_ooc(chunk: Chunk):
        def fn() -> None:
            W = store.load(sub(a_spec, chunk.r0, chunk.r1))
            # The one leaf body, over the loaded window: its row 0 is
            # panel row chunk.r0 (an in-heap array is its own spec).
            run_op(
                (
                    "tslu_leaf",
                    {
                        "a": W,
                        "r0": 0,
                        "r1": chunk.rows,
                        "c0": 0,
                        "c1": n,
                        "k0": -chunk.r0,
                        "leaf_kernel": leaf_kernel,
                        "slot": ws.slot_specs[chunk.index],
                    },
                )
            )

        return fn

    def _finalize_ooc():
        def fn() -> None:
            cand, gidx, count = ws.slots[root]
            nc = int(count[0])
            if ws.degraded or nc == 0 or not np.isfinite(cand[:nc]).all():
                # No out-of-core degradation ladder: repair or fallback
                # would re-stream the whole panel, so fail loudly.
                raise RuntimeError(
                    "tslu_ooc: tournament candidates corrupted; "
                    "out-of-core panels have no partial-pivoting fallback"
                )
            piv = perm_from_piv_rows(gidx[:nc], m)
            ws.piv = state.piv = piv
            # laswp(A, piv), replayed with windowed row transfers: the
            # top r rows are hot (every swap touches one) and stay
            # resident; the partner row makes one round trip.  Same
            # sequence, same values as the in-memory swap.
            top = store.load(sub(a_spec, 0, r))
            for i in range(len(piv)):
                p = int(piv[i])
                if p == i:
                    continue
                if p < r:
                    tmp = top[i].copy()
                    top[i] = top[p]
                    top[p] = tmp
                else:
                    pspec = sub(a_spec, p, p + 1)
                    partner = store.load(pspec)
                    tmp = top[i].copy()
                    top[i] = partner[0]
                    partner[0] = tmp
                    store.store(pspec, partner)
            getf2_nopiv(top)
            state.U = top
            store.store(sub(a_spec, 0, r), top)

        return fn

    def _l_ooc(r0: int, r1: int):
        def fn() -> None:
            spec = sub(a_spec, r0, r1)
            W = store.load(spec)
            trsm_runn(state.U, W)
            store.store(spec, W)

        return fn

    def cand(slot: int) -> tuple:
        return ("cand", slot)

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        if window < len(chunks):
            chunk = chunks[window]
            tracker.add_task(
                graph,
                f"P[0]leaf{chunk.index}",
                TaskKind.P,
                Cost(
                    leaf_kernel if chunk.rows >= bk else "getf2",
                    m=chunk.rows,
                    n=bk,
                    flops=lu_flops(chunk.rows, bk),
                    words=2.0 * chunk.rows * bk,
                ),
                fn=_leaf_ooc(chunk),
                reads=[("oocblk", chunk.index)],
                writes=[cand(chunk.index)],
            )
            return
        if window == len(chunks):
            cand_rows = {c.index: min(c.rows, bk) for c in chunks}
            for level in reduction_schedule(len(slots), tree, arity):
                for dst_pos, src_pos in level:
                    dst = slots[dst_pos]
                    srcs = [slots[p] for p in src_pos]
                    stacked = sum(cand_rows[s] for s in srcs)
                    fn, _ = op_task(
                        heap,
                        "tslu_merge",
                        {
                            "srcs": [ws.slot_specs[s] for s in srcs],
                            "dst": ws.slot_specs[dst],
                            "bk": bk,
                            "leaf_kernel": leaf_kernel,
                            "flags": ws.flags_spec,
                        },
                    )
                    tracker.add_task(
                        graph,
                        f"P[0]merge{dst}<{','.join(map(str, srcs))}",
                        TaskKind.P,
                        Cost(
                            "gepp_merge",
                            m=stacked,
                            n=bk,
                            flops=lu_panel_flops(stacked, min(stacked, bk)),
                            words=2.0 * stacked * bk,
                        ),
                        fn=fn,
                        reads=[cand(s) for s in srcs],
                        writes=[cand(dst)],
                    )
                    cand_rows[dst] = min(stacked, bk)
            tracker.add_task(
                graph,
                "F[0]",
                TaskKind.P,
                Cost(
                    "getf2_nopiv",
                    m=r,
                    n=bk,
                    flops=lu_panel_flops(r, r),
                    words=4.0 * bk * bk,
                ),
                fn=_finalize_ooc(),
                reads=[cand(root)] + [("oocblk", c.index) for c in chunks],
                writes=[("u",)] + [("oocblk", c.index) for c in chunks],
            )
            return
        for chunk in chunks:
            r0 = max(chunk.r0, n)
            if r0 >= chunk.r1:
                continue
            tracker.add_task(
                graph,
                f"L[0]{chunk.index}",
                TaskKind.L,
                Cost(
                    "trsm_runn",
                    m=chunk.r1 - r0,
                    k=n,
                    flops=trsm_right_flops(chunk.r1 - r0, n),
                    words=2.0 * (chunk.r1 - r0) * n,
                ),
                fn=_l_ooc(r0, chunk.r1),
                reads=[("u",), ("oocblk", chunk.index)],
                writes=[("oocblk", chunk.index)],
            )

    program = GraphProgram(f"tslu_ooc{m}x{n}", len(chunks) + 2, emit, lookahead=1)
    return program, ws, state


def tslu_ooc(
    source,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    store="mmap",
    spill_dir=None,
    n_workers: int = 2,
    tree: TreeKind = TreeKind.FLAT,
    leaf_kernel: str = "rgetf2",
    check_finite: bool = True,
) -> OOCPanelLU:
    """LU-factor a tall-skinny panel streamed through a tile store.

    Same source/staging/ownership contract as :func:`tsqr_ooc`; the
    default tree is flat (the I/O-optimal sequential schedule — the
    candidate reduction happens in RAM either way, but flat matches the
    in-memory driver call for call when pinned to the same *tr*).
    Returns an :class:`OOCPanelLU`; ``lu()``/``piv`` reproduce
    :func:`repro.core.tslu.tslu`'s ``(lu, piv)`` bitwise on sizes both
    paths can run.
    """
    src = as_source(source)
    m, n = src.shape
    if m < n:
        raise ValueError(f"tslu requires a tall panel (m >= n), got {src.shape}")
    chunks = plan_chunks(
        m, n, tr=tr, memory_budget=memory_budget, n_workers=n_workers, merge_tail=False
    )
    store_obj, owned = _resolve_store(store, spill_dir)
    try:
        a_spec = _stage_panel(store_obj, src, chunks, check_finite)
        program, ws, state = tslu_ooc_program(
            store_obj, a_spec, chunks, tree, leaf_kernel=leaf_kernel
        )
        executor = ThreadedExecutor(max(1, n_workers))
        executor.run(program)
        assert state.piv is not None
    except BaseException:
        if owned:
            store_obj.destroy()
        raise
    return OOCPanelLU(
        m=m,
        n=n,
        store=store_obj,
        a_spec=a_spec,
        chunks=chunks,
        piv=state.piv,
        degraded=ws.degraded,
        owns_store=owned,
    )


# ---------------------------------------------------------------------------
# Direct TSQR (single pass, read-once)
# ---------------------------------------------------------------------------


@dataclass
class DirectTSQRFactorization:
    """Result of :func:`direct_tsqr`.

    ``R`` is always resident.  With ``want_q`` the explicit thin ``Q``
    lives in the store (``q_rows`` streams row windows; ``q_explicit``
    materializes it for tests); without it no store region is ever
    written — the single read of the source is the only traffic.
    """

    m: int
    n: int
    R: np.ndarray
    chunks: list[Chunk]
    store: TileStore | None = None
    q_spec: tuple | None = None
    owns_store: bool = True

    def q_rows(self, r0: int, r1: int) -> np.ndarray:
        if self.q_spec is None:
            raise ValueError("direct_tsqr ran without want_q; no explicit Q stored")
        return self.store.load(TileStore.sub(self.q_spec, r0, r1))

    def q_explicit(self) -> np.ndarray:
        return self.q_rows(0, self.m)

    def destroy(self) -> None:
        if self.store is not None and self.owns_store:
            self.store.destroy()

    def __enter__(self) -> "DirectTSQRFactorization":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


def direct_tsqr(
    source,
    *,
    tr: int | None = None,
    memory_budget: int | None = None,
    want_q: bool = False,
    store="mmap",
    spill_dir=None,
    check_finite: bool = True,
) -> DirectTSQRFactorization:
    """Single-pass Direct TSQR of a tall-skinny panel.

    Pass 1 consumes the source one block at a time: each block is
    QR-factored and only its small ``R`` factor kept (plus, with
    *want_q*, the block's explicit ``Q_1`` written to the store).  A
    second-stage QR of the stacked ``R`` factors yields the final
    ``R``; with *want_q* one more streamed pass multiplies each
    ``Q_1`` block by its ``Q_2`` tile.  Without *want_q* nothing is
    ever staged — the panel is read exactly once, the optimal traffic
    for the R-only (e.g. least-squares/Gram-avoiding) regime, at the
    price of ``Q`` applies.
    """
    src = as_source(source)
    m, n = src.shape
    if m < n:
        raise ValueError(f"direct_tsqr requires a tall panel (m >= n), got {src.shape}")
    chunks = plan_chunks(
        m, n, tr=tr, memory_budget=memory_budget, n_workers=1, merge_tail=True
    )
    store_obj = q_spec = None
    owned = False
    try:
        if want_q:
            store_obj, owned = _resolve_store(store, spill_dir)
            q_spec = store_obj.reserve((m, n))
        r_stack: list[np.ndarray] = []
        for chunk in chunks:
            # Copy: the block is factored in place, and an ndarray
            # source's fill returns a view of the caller's matrix.
            W = np.array(src.fill(chunk.r0, chunk.r1), dtype=np.float64, order="C")
            if check_finite and not np.isfinite(W).all():
                raise ValueError(
                    f"panel rows [{chunk.r0}, {chunk.r1}) contain non-finite entries"
                )
            T1 = geqr3(W)
            r_stack.append(np.triu(W[:n]))
            if want_q:
                V = extract_v(W)
                E = np.zeros((chunk.rows, n))
                np.fill_diagonal(E, 1.0)
                Wk = T1 @ (V.T @ E)
                E -= V @ Wk
                store_obj.store(TileStore.sub(q_spec, chunk.r0, chunk.r1), E)
        S = np.vstack(r_stack)
        T2 = geqr3(S)
        R = np.triu(S[:n]).copy()
        if want_q:
            V2 = extract_v(S)
            E2 = np.zeros((S.shape[0], n))
            np.fill_diagonal(E2, 1.0)
            Wk = T2 @ (V2.T @ E2)
            E2 -= V2 @ Wk  # Q2: one n x n tile per block, stacked
            for i, chunk in enumerate(chunks):
                spec = TileStore.sub(q_spec, chunk.r0, chunk.r1)
                Q1 = store_obj.load(spec)
                store_obj.store(spec, Q1 @ E2[i * n : (i + 1) * n])
    except BaseException:
        if owned:
            store_obj.destroy()
        raise
    return DirectTSQRFactorization(
        m=m,
        n=n,
        R=R,
        chunks=chunks,
        store=store_obj,
        q_spec=q_spec,
        owns_store=owned,
    )
