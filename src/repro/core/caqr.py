"""Multithreaded CAQR — Algorithm 2 of the paper.

Block QR factorization ``A = Q R`` whose panel factorization is TSQR
(:mod:`repro.core.tsqr`).  Unlike CALU the panel is factored only
once, and the reduction tree that produced ``R`` also drives the
trailing-matrix update:

* task **P** — leaf QR of one row chunk of the panel (``dgeqr3``) and
  the ``[R_i; R_j]`` tree merges (structured ``tpqrt``);
* task **S** (leaf) — apply a leaf's block reflector to one trailing
  block column (``dlarfb``);
* task **S** (node) — apply a merge's ``[I; V_b]`` reflector to the two
  ``b``-row slices of a trailing block column (``tpmqrt``).

``Q`` stays implicit (per-panel :class:`~repro.core.tsqr.PanelQRStore`),
so ``apply_q``/``apply_qt``/``solve_ls`` replay the trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.flops import larfb_flops, tpmqrt_flops
from repro.core.calu import merged_chunks
from repro.core.layout import BlockLayout
from repro.core.priorities import lookahead_depth, task_priority
from repro.core.trees import TreeKind
from repro.core.tsqr import PanelQRStore, add_tsqr_tasks
from repro.resilience.health import finite_block_guard
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.ops import op_task
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind
from repro.runtime.tilestore import HeapBinding
from repro.runtime.trace import Trace

__all__ = ["CAQRFactorization", "caqr", "caqr_program"]


def caqr_program(
    layout: BlockLayout,
    tr: int,
    tree: TreeKind = TreeKind.FLAT,
    *,
    A: np.ndarray | None = None,
    lookahead: int | None = None,
    library: str = "repro_qr",
    leaf_kernel: str = "geqr3",
    arity: int = 4,
    guards: bool = True,
    checkpoint=None,
    store=None,
) -> tuple[GraphProgram, list[PanelQRStore]]:
    """Build the CAQR task graph as a streaming :class:`GraphProgram`.

    One window per panel iteration (TSQR tree, leaf/node trailing
    updates, optional ``C[K]`` checkpoint task); symbolic when ``A`` is
    None.  See :func:`repro.core.calu.calu_program` for the streaming
    semantics.

    Returns ``(program, per-panel implicit-Q stores)``; the store list
    fills as panel windows are emitted.  With *guards* (numeric runs
    only) the panel tasks and trailing updates carry finiteness health
    guards: QR has no partial-pivoting fallback, so a corrupted panel
    surfaces as a fatal structured failure rather than silently wrong
    factors.  *checkpoint* adds per-boundary ``C[K]`` snapshot tasks
    exactly as in :func:`repro.core.calu.calu_program`.

    *store* binds *A* and the WY-factor buffers (numeric runs only):
    a :class:`~repro.runtime.tilestore.HeapBinding` of *A* by default;
    with a :class:`~repro.runtime.shm.ShmBinding` whose matrix view
    **is** *A* the P and S tasks' descriptors are also published as
    ``meta["op"]`` for :class:`~repro.runtime.process.ProcessExecutor`
    dispatch (see :func:`repro.core.calu.calu_program`).
    """
    numeric = A is not None
    guards = guards and numeric
    if numeric and store is None:
        store = HeapBinding(A)
    if lookahead is None:
        lookahead = lookahead_depth()
    N = layout.N
    stores: list[PanelQRStore] = []
    # Per-panel symbolic footprint keys of the implicit-Q factors the
    # TSQR tasks deposit in the PanelQRStore (read back by the trailing
    # updates and the checkpoint snapshots).  Accumulates across
    # windows: a later C[K] task reads every covered panel's keys.
    panel_q_keys: list[list[tuple]] = []

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        K = window
        bk = layout.panel_width(K)
        chunks = merged_chunks(layout, K, tr)
        qstore = PanelQRStore() if numeric else None
        if numeric:
            stores.append(qstore)

        handles = add_tsqr_tasks(
            graph,
            tracker,
            layout,
            K,
            chunks,
            tree,
            store=store,
            qstore=qstore,
            lookahead=lookahead,
            library=library,
            leaf_kernel=leaf_kernel,
            arity=arity,
        )
        panel_q_keys.append(
            [("qleaf", K, slot) for slot in sorted(handles.leaf_tids)]
            + [("qmerge", K, step.ordinal) for step in handles.merge_steps]
        )
        if guards:
            # QR panel guards attach post-hoc on the TSQR handles: the
            # leaf/merge factors must stay finite for the implicit Q to
            # be usable at all.
            p0 = K * layout.b
            for slot, tid in handles.leaf_tids.items():
                chunk = handles.leaf_chunks[slot]
                graph.tasks[tid].meta["health"] = finite_block_guard(
                    A, chunk.r0, chunk.r1, p0, p0 + bk, graph.tasks[tid].name
                )
            for step in handles.merge_steps:
                graph.tasks[step.tid].meta["health"] = finite_block_guard(
                    A, step.dst.r0, step.dst.r0 + bk, p0, p0 + bk, graph.tasks[step.tid].name
                )

        # Trailing column segments: full block columns J > K plus, for a
        # panel narrower than its block column (last panel of a wide
        # matrix), the leftover columns of block column K itself.
        c1 = K * layout.b + bk
        kb_end = min((K + 1) * layout.b, layout.n)
        segments: list[tuple[int, int, int]] = []
        if c1 < kb_end:
            segments.append((K, c1, kb_end))
        segments.extend((J, *layout.col_range(J)) for J in range(K + 1, N))
        for J, j0, j1 in segments:
            nc = j1 - j0
            # Leaf updates: one dlarfb per (chunk, J).
            for slot, chunk in handles.leaf_chunks.items():
                cost = Cost(
                    "larfb",
                    m=chunk.rows,
                    n=nc,
                    k=bk,
                    flops=larfb_flops(chunk.rows, nc, bk),
                    words=2.0 * chunk.rows * nc + chunk.rows * bk,
                    library=library,
                )
                s_name = f"S[{K}]leaf{slot},{J}"
                s_fn, s_meta = None, {}
                if numeric:
                    v_spec, t_spec = handles.leaf_bufs[slot]
                    s_fn, s_meta = op_task(
                        store,
                        "caqr_leaf_update",
                        {
                            "a": store.a_spec,
                            "r0": chunk.r0,
                            "r1": chunk.r1,
                            "j0": j0,
                            "j1": j1,
                            "v": v_spec,
                            "t": t_spec,
                        },
                    )
                if guards:
                    s_meta["health"] = finite_block_guard(A, chunk.r0, chunk.r1, j0, j1, s_name)
                tracker.add_task(
                    graph,
                    s_name,
                    TaskKind.S,
                    cost,
                    fn=s_fn,
                    # The applied reflector comes out of the store, not
                    # the matrix: ("qleaf", K, slot) carries that edge.
                    reads=chunk.blocks(K) + [("qleaf", K, slot)],
                    writes=chunk.blocks(J),
                    extra_deps=[handles.leaf_tids[slot]],
                    priority=task_priority("S", K, J, lookahead=lookahead, n_cols=N),
                    iteration=K,
                    col=J,
                    **s_meta,
                )
            # Tree-node updates: tpmqrt on the two R slices per merge.
            for step in handles.merge_steps:
                npairs = len(step.srcs)
                cost = Cost(
                    "tpmqrt",
                    m=bk,
                    n=nc,
                    k=bk,
                    flops=tpmqrt_flops(bk, nc, bk) * npairs,
                    words=(4.0 * bk * nc + bk * bk) * npairs,
                    library=library,
                )
                blocks = [(step.dst.b0, J)] + [(s.b0, J) for s in step.srcs]
                s_name = f"S[{K}]node{step.dst.index}l{step.level},{J}"
                s_fn, s_meta = None, {}
                if numeric:
                    s_fn, s_meta = op_task(
                        store,
                        "caqr_merge_update",
                        {"a": store.a_spec, "j0": j0, "j1": j1, "bk": bk, "pairs": step.pairs},
                    )
                if guards:
                    s_meta["health"] = finite_block_guard(
                        A, step.dst.r0, step.dst.r0 + bk, j0, j1, s_name
                    )
                tracker.add_task(
                    graph,
                    s_name,
                    TaskKind.S,
                    cost,
                    fn=s_fn,
                    reads=blocks + [("qmerge", K, step.ordinal)],
                    writes=blocks,
                    extra_deps=[step.tid],
                    priority=task_priority("S", K, J, lookahead=lookahead, n_cols=N),
                    iteration=K,
                    col=J,
                    **s_meta,
                )

        if numeric and checkpoint is not None and checkpoint.should_snapshot(K):
            checkpoint.add_snapshot_task(
                graph,
                tracker,
                layout,
                K,
                A,
                stores,
                state_reads=[key for P in checkpoint.covered_panels(K) for key in panel_q_keys[P]],
                priority=task_priority("X", K, lookahead=lookahead, n_cols=N) + 1.0,
                library=library,
            )

    program = GraphProgram(
        f"caqr{layout.m}x{layout.n}b{layout.b}tr{tr}",
        layout.n_panels,
        emit,
        lookahead=lookahead,
    )
    return program, stores


@dataclass
class CAQRFactorization:
    """Result of :func:`caqr`: ``A = Q R`` with implicit per-panel ``Q``.

    ``packed`` holds the Householder storage (``R`` in the upper
    triangle); ``panels`` the per-panel tree factors.
    """

    packed: np.ndarray
    panels: list[PanelQRStore]
    b: int
    tr: int
    tree: TreeKind
    trace: Trace | None = None

    @property
    def m(self) -> int:
        return self.packed.shape[0]

    @property
    def n(self) -> int:
        return self.packed.shape[1]

    @property
    def R(self) -> np.ndarray:
        """The ``min(m,n) x n`` upper-triangular/trapezoidal factor."""
        r = min(self.packed.shape)
        return np.triu(self.packed[:r, :])

    def apply_qt(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q^T C`` for ``C`` of shape ``(m,)`` or ``(m, p)``."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        for store in self.panels:
            store.apply_qt(W)
        return W[:, 0] if squeeze else W

    def apply_q(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q C`` for ``C`` of shape ``(m,)`` or ``(m, p)``."""
        C = np.array(C, dtype=float, copy=True)
        squeeze = C.ndim == 1
        W = C.reshape(self.m, -1)
        for store in reversed(self.panels):
            store.apply_q(W)
        return W[:, 0] if squeeze else W

    def q_explicit(self) -> np.ndarray:
        """The thin ``Q`` (``m x min(m, n)``)."""
        r = min(self.packed.shape)
        E = np.zeros((self.m, r))
        np.fill_diagonal(E, 1.0)
        return self.apply_q(E)

    def reconstruct(self) -> np.ndarray:
        """Recompute ``A = Q R`` (for verification)."""
        r = min(self.packed.shape)
        RR = np.zeros((self.m, self.n))
        RR[:r] = self.R
        return self.apply_q(RR)

    def solve_ls(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - rhs||_2`` (``m >= n``)."""
        import scipy.linalg

        if self.m < self.n:
            raise ValueError("solve_ls requires m >= n")
        y = self.apply_qt(rhs)
        return scipy.linalg.solve_triangular(self.R, y[: self.n])


def caqr(
    A: np.ndarray,
    b: int | None = None,
    tr: int = 4,
    tree: TreeKind = TreeKind.FLAT,
    executor=None,
    lookahead: int | None = None,
    leaf_kernel: str = "geqr3",
    overwrite: bool = False,
    check_finite: bool = True,
    guards: bool = True,
    checkpoint=None,
    fuse: int | None = None,
) -> CAQRFactorization:
    """Factor ``A`` with multithreaded CAQR (Algorithm 2).

    Parameters mirror :func:`repro.core.calu.calu`; the default tree is
    the height-1 (flat) reduction the paper uses for its CAQR results.
    *checkpoint* arms the checkpoint/restart path: snapshots also carry
    the implicit-Q tree factors, so a resumed run returns a fully
    usable factorization with **bitwise-identical** ``R`` and ``Q``.
    ``executor="auto"`` and *fuse* behave as in :func:`~repro.core.calu.calu`:
    the autotuner picks backend and fusion granularity, and fused
    super-tasks dispatch with one scheduler slot / pipe round-trip each.
    """
    from repro.core.driver import ALGORITHMS, factorize

    return factorize(
        ALGORITHMS["qr"],
        A,
        b=b,
        tr=tr,
        tree=tree,
        executor=executor,
        lookahead=lookahead,
        leaf_kernel=leaf_kernel,
        overwrite=overwrite,
        check_finite=check_finite,
        guards=guards,
        checkpoint=checkpoint,
        fuse=fuse,
    )
