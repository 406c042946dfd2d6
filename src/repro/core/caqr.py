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
from repro.resilience.checkpoint import restore_matrix
from repro.resilience.events import ResilienceEvent
from repro.resilience.health import finite_block_guard, validate_matrix
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.ops import op_task
from repro.runtime.process import staged
from repro.runtime.program import GraphProgram, supports_streaming
from repro.runtime.task import Cost, TaskKind
from repro.runtime.tilestore import HeapBinding
from repro.runtime.trace import Trace

__all__ = ["CAQRFactorization", "build_caqr_graph", "caqr", "caqr_program"]


def _ckpt_fn(A: np.ndarray, layout: BlockLayout, ckpt, K: int, stores: list[PanelQRStore]):
    """Snapshot closure for the boundary-*K* CAQR checkpoint task.

    Besides the matrix regions (packed ``V``/``R`` columns, final
    ``R`` block rows, live trailing matrix) the covered panels'
    implicit-Q stores are flattened into the payload — a resumed run
    needs them for ``apply_q``/``apply_qt``.
    """

    def fn() -> None:
        m, n, b = layout.m, layout.n, layout.b
        prevK = ckpt.prev_boundary(K)
        prev_c1 = prevK * b + layout.panel_width(prevK) if prevK >= 0 else 0
        c1 = K * b + layout.panel_width(K)
        extra: dict = {}
        for P in range(max(prevK + 1, 0), K + 1):
            for key, val in stores[P].to_arrays().items():
                extra[f"q{P}_{key}"] = val
        ckpt.save_snapshot(
            K,
            cols=A[:, prev_c1:c1],
            urows=A[prev_c1:c1, c1:n],
            trailing=A[c1:m, c1:n],
            extra=extra,
        )

    return fn


def _ckpt_guard(K: int, name: str):
    def guard() -> ResilienceEvent:
        return ResilienceEvent(
            "checkpoint", task=name, detail=f"panel boundary {K} snapshot saved"
        )

    return guard


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
    None.  ``materialize()`` reproduces the old eager graph exactly —
    see :func:`repro.core.calu.calu_program` for the streaming
    semantics.

    Returns ``(program, per-panel implicit-Q stores)``; the store list
    fills as panel windows are emitted.  With *guards* (numeric runs
    only) the panel tasks and trailing updates carry finiteness health
    guards: QR has no partial-pivoting fallback, so a corrupted panel
    surfaces as a fatal structured failure rather than silently wrong
    factors.  *checkpoint* adds per-boundary ``C[K]`` snapshot tasks
    exactly as in :func:`repro.core.calu.build_calu_graph`.

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

        # Task C: the boundary-K checkpoint (see build_calu_graph).
        if numeric and checkpoint is not None and checkpoint.should_snapshot(K):
            m, n, b = layout.m, layout.n, layout.b
            prevK = checkpoint.prev_boundary(K)
            prev_c1 = prevK * b + layout.panel_width(prevK) if prevK >= 0 else 0
            ck_words = 2.0 * (
                m * (c1 - prev_c1)
                + (c1 - prev_c1) * max(n - c1, 0)
                + max(m - c1, 0) * max(n - c1, 0)
            )
            ck_name = f"C[{K}]"
            ck_reads = [
                (i, J)
                for J in range(max(prevK + 1, 0), N)
                for i in range(layout.M)
                if J <= K or i > prevK
            ]
            # The snapshot flattens the covered panels' implicit-Q
            # stores into its payload.
            for P in range(max(prevK + 1, 0), K + 1):
                ck_reads += panel_q_keys[P]
            tracker.add_task(
                graph,
                ck_name,
                TaskKind.X,
                Cost("laswp", words=ck_words, library=library),
                fn=_ckpt_fn(A, layout, checkpoint, K, stores),
                reads=ck_reads,
                priority=task_priority("X", K, lookahead=lookahead, n_cols=N) + 1.0,
                iteration=K,
                health=_ckpt_guard(K, ck_name),
            )

    program = GraphProgram(
        f"caqr{layout.m}x{layout.n}b{layout.b}tr{tr}",
        layout.n_panels,
        emit,
        lookahead=lookahead,
    )
    return program, stores


def build_caqr_graph(
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
) -> tuple[TaskGraph, list[PanelQRStore]]:
    """Build the complete (eager) CAQR task graph for *layout*.

    Materializes :func:`caqr_program` up front — the historical
    interface, still what the verify/DOT/analysis tooling consumes.
    See :func:`caqr_program` for the parameters.
    """
    program, stores = caqr_program(
        layout,
        tr,
        tree,
        A=A,
        lookahead=lookahead,
        library=library,
        leaf_kernel=leaf_kernel,
        arity=arity,
        guards=guards,
        checkpoint=checkpoint,
    )
    return program.materialize(), stores


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
    A = validate_matrix(A, "A", require_finite=check_finite)
    guards = guards and check_finite
    m, n = A.shape
    if b is None:
        b = min(100, n)
    layout = BlockLayout(m, n, b)
    hints = {"kind": "qr", "m": m, "n": n, "b": b, "tr": tr, "tree": tree}
    with staged(A, executor, min(tr, 4), overwrite=overwrite, hints=hints) as (
        executor,
        store,
        autotune_decision,
    ):
        A = store.A
        if fuse is None and autotune_decision is not None:
            fuse = autotune_decision.max_ops
        program, stores = caqr_program(
            layout,
            tr,
            tree,
            A=A,
            lookahead=lookahead,
            leaf_kernel=leaf_kernel,
            guards=guards,
            checkpoint=checkpoint,
            store=store,
        )
        if fuse is not None and fuse > 1:
            from repro.runtime.fuse import fuse_program

            # Per-window rewrite; checkpoint (X) tasks keep their identity.
            program = fuse_program(program, max_ops=fuse)
        # Stream through engine-backed executors; materialize for
        # caller-made (duck-typed) ones — the historical contract.
        source = program if supports_streaming(executor) else program.materialize()
        journal = None
        if checkpoint is not None:
            import zlib

            signature = {
                "algo": "caqr",
                "m": m,
                "n": n,
                "b": int(b),
                "tr": int(tr),
                "tree": tree.value,
                "leaf_kernel": leaf_kernel,
                "a_digest": zlib.crc32(A.tobytes()),
            }
            usable = checkpoint.prepare(signature)
            resumed_from, snaps = (
                restore_matrix(A, layout, checkpoint) if usable else (-1, {})
            )
            journal = checkpoint.journal()
            journal.reset()
            journal.bind(source)
            if resumed_from >= 0:
                # Emit the resumed prefix so its tasks are enumerable
                # (no-op on the eager path).
                program.emit_through(resumed_from)
                # Refill the covered panels' implicit-Q buffers (the
                # tasks and the returned factorization share them).
                for snap in snaps.values():
                    per_panel: dict[int, dict] = {}
                    for key, val in snap.items():
                        if not key.startswith("q"):
                            continue
                        head, _, rest = key.partition("_")
                        try:
                            P = int(head[1:])
                        except ValueError:
                            continue
                        per_panel.setdefault(P, {})[rest] = val
                    for P, arrays in per_panel.items():
                        stores[P].restore(arrays)
                journal.mark_completed(
                    t.name for t in program.graph.tasks if t.iteration <= resumed_from
                )
        plan = getattr(executor, "fault_plan", None)
        if plan is not None and plan.target is None:
            plan.target = A
        trace = (
            executor.run(source, journal=journal) if journal is not None else executor.run(source)
        )
        if autotune_decision is not None:
            trace.events.append(autotune_decision.event())
        if guards and not np.isfinite(A).all():
            raise RuntimeFailure(
                "CAQR produced non-finite factors (undetected corruption)",
                failure_kind="health",
                trace=trace,
            )
        if checkpoint is not None:
            # Drain the async snapshot writer so a completed run leaves
            # its full chain on disk (and any write error surfaces here).
            checkpoint.flush()
        return CAQRFactorization(
            packed=store.detach(A),
            panels=[qs.detached(store.detach) for qs in stores],
            b=b,
            tr=tr,
            tree=tree,
            trace=trace,
        )
