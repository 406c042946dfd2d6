"""TSQR — tall-skinny QR via a reduction tree.

The panel is split into ``Tr`` row chunks; each chunk is QR-factored
independently (task P at the leaves); the resulting ``R`` factors are
merged pairwise (binary tree), all at once (flat tree, the paper's best
performer in Section IV) or in groups (hybrid), each merge being a
structured ``[R_i; R_j]`` QR.  Each task runs the vendor's kernel, as
the paper's tasks call MKL/ACML: LAPACK ``?geqrt`` at the leaves
(:func:`repro.kernels.qr.geqrt`) and ``?tpqrt`` at the merges
(:func:`repro.kernels.structured.lapack_tpqrt`).

``Q`` is kept implicit — the list of leaf WY factors and merge
reflectors — exactly like LAPACK keeps Householder vectors.  This is
what makes TSQR useful for the paper's motivating application
(orthogonalization in block iterative methods): ``apply_q`` /
``apply_qt`` replay the tree in ``O(mn)`` per vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.layout import BlockLayout, Chunk
from repro.core.panelloop import Emitter
from repro.core.trees import TreeKind, reduction_schedule
from repro.kernels.qr import larfb_left_t
from repro.kernels.structured import tpmqrt_left_t
from repro.resilience.health import finite_block_guard
from repro.runtime.task import Cost

__all__ = [
    "LeafFactor",
    "MergeFactor",
    "PanelQRStore",
    "add_tsqr_tasks",
    "TSQRFactorization",
    "tsqr",
]


@dataclass
class LeafFactor:
    """WY factor of one leaf QR: rows ``[r0, r1)``, ``Q = I - V T V^T``;
    ``V`` unpacks (``np.asarray``) from the leaf's rows of the matrix."""

    slot: int
    r0: int
    r1: int
    V: np.ndarray
    T: np.ndarray


@dataclass
class MergeFactor:
    """One ``[R_top; R_bot]`` merge: ``V = [I; Vb]`` with ``Vb`` upper triangular."""

    top0: int
    bot0: int
    r: int
    Vb: np.ndarray
    T: np.ndarray


@dataclass
class PanelQRStore:
    """Implicit-Q storage for one panel: leaves plus ordered merges.

    A builder fills it when the panel's window is emitted: the entries'
    ``T``/``Vb`` arrays are views of buffers allocated from the
    builder's ``store=`` binding, which the panel's tasks then write —
    on every backend, so there is no second copy to publish.  A leaf's
    ``V`` has no buffer on any plane: it stays packed below ``R`` in
    the leaf's factored rows of the matrix, its only copy.
    """

    leaves: dict[int, LeafFactor] = field(default_factory=dict)
    merges: list[MergeFactor] = field(default_factory=list)
    #: QR arms no pivot-growth monitor (cf. ``PanelWorkspace.absmax``).
    absmax = None

    def detached(self, detach, A) -> "PanelQRStore":
        """This store for a result that outlives the binding: the leaves
        read ``V`` from *A*, the result's copy of the matrix, and every
        other factor passes through *detach* (a binding's copy-out)."""
        leaves = {s: replace(f, V=f.V.over(A), T=detach(f.T)) for s, f in self.leaves.items()}
        merges = [replace(f, Vb=detach(f.Vb), T=detach(f.T)) for f in self.merges]
        return PanelQRStore(leaves, merges)

    def reset(self, absmax: float | None = None) -> None:
        """Nothing to forget between runs of a cached graph (cf.
        ``PanelWorkspace.reset``): every run overwrites every buffer."""

    def restore(self, arrays: dict) -> None:
        """Refill the factor buffers from a :meth:`to_arrays` payload
        (checkpoint resume), in place: the buffers are what the tasks'
        descriptors address (the leaves' ``V``: with the matrix)."""
        for slot, leaf in self.leaves.items():
            np.copyto(leaf.T, arrays[f"leaf{slot}_T"])
        for i, mf in enumerate(self.merges):
            np.copyto(mf.Vb, arrays[f"merge{i}_Vb"])
            np.copyto(mf.T, arrays[f"merge{i}_T"])

    def apply_qt(self, C: np.ndarray) -> None:
        """Apply this panel's ``Q^T`` to (the full-height) ``C`` in place."""
        for leaf in self.leaves.values():
            larfb_left_t(np.asarray(leaf.V), leaf.T, C[leaf.r0 : leaf.r1])
        for mf in self.merges:
            tpmqrt_left_t(mf.Vb, mf.T, C[mf.top0 : mf.top0 + mf.r], C[mf.bot0 : mf.bot0 + mf.r])

    def apply_q(self, C: np.ndarray) -> None:
        """Apply this panel's ``Q`` to ``C`` in place (reverse replay)."""
        for mf in reversed(self.merges):
            tpmqrt_left_t(
                mf.Vb,
                mf.T,
                C[mf.top0 : mf.top0 + mf.r],
                C[mf.bot0 : mf.bot0 + mf.r],
                transpose=False,
            )
        for leaf in self.leaves.values():
            V, T = np.asarray(leaf.V), leaf.T
            Cv = C[leaf.r0 : leaf.r1]
            W = T @ (V.T @ Cv)
            Cv -= V @ W

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Flatten the store to named arrays (checkpoint payloads; a
        leaf's ``V`` is in the matrix snapshot)."""
        out: dict = {"n_merges": np.int64(len(self.merges))}
        for slot, leaf in self.leaves.items():
            out[f"leaf{slot}_idx"] = np.array([leaf.slot, leaf.r0, leaf.r1], dtype=np.int64)
            out[f"leaf{slot}_T"] = leaf.T
        for i, mf in enumerate(self.merges):
            out[f"merge{i}_idx"] = np.array([mf.top0, mf.bot0, mf.r], dtype=np.int64)
            out[f"merge{i}_Vb"] = mf.Vb
            out[f"merge{i}_T"] = mf.T
        return out


@dataclass
class MergeStep:
    """Build-time record of one merge task: which pairs it performs."""

    tid: int
    level: int
    dst: Chunk
    srcs: list[Chunk]
    #: Numeric builds: one ``(top0, bot0, Vb_spec, T_spec)`` per source,
    #: in ``PanelQRStore.merges`` order — the step's ``tsqr_merge``
    #: payload, and what CAQR's node updates apply.
    pairs: list[tuple] = field(default_factory=list)
    #: Ordinal of this step within its panel; keys the step's implicit-Q
    #: output in task footprints as ``("qmerge", K, ordinal)``.
    ordinal: int = 0


def add_tsqr_tasks(
    em: Emitter,
    layout: BlockLayout,
    chunks: list[Chunk],
    tree: TreeKind,
    qstore: PanelQRStore | None,
    *,
    library: str = "repro_qr",
) -> tuple[list[tuple], list[MergeStep]]:
    """Emit the TSQR tasks (leaf QRs + tree merges) of the emitter's
    panel: the loop's P step for QR.

    Returns what CAQR attaches trailing updates to: the leaves as
    ``(chunk, task id, T buffer spec)`` and the merge steps.  Numeric
    tasks are descriptors over ``em.store``, the binding of the matrix
    they factor in place (a
    :class:`~repro.runtime.tilestore.HeapBinding`, a
    :class:`~repro.runtime.shm.ShmBinding` or, out of core, a
    :class:`~repro.runtime.tilestore.StreamedBinding`): the ``T``/``Vb``
    factors live in buffers allocated from it (a leaf's ``V`` in the
    matrix) and *qstore*'s entries are created here as views of those.
    A symbolic emitter's tasks carry costs only (*qstore* is None, the
    buffer specs too).

    With ``em.block_guards`` every task guards the finiteness of the
    ``R`` block it leaves in the matrix: QR has no fallback, so a
    corrupted panel is a fatal structured failure.
    """
    K, store, A = em.K, em.store, em.A
    numeric = store is not None
    c0 = K * layout.b
    c1 = c0 + layout.panel_width(K)
    bk = c1 - c0
    dtype = A.dtype if numeric else None
    shared = numeric and {"a": store.a_spec, "c0": c0, "c1": c1}  # of every descriptor here

    leaves: list[tuple] = []
    for chunk in chunks:
        op = t_spec = None
        if numeric:
            k = min(chunk.rows, bk)  # reflector count of this leaf
            v_view, _ = store.alloc_v(chunk.r0, chunk.r1, c0, c1)  # no buffer: V stays in A
            t_view, t_spec = store.alloc((k, k), dtype)
            qstore.leaves[chunk.index] = LeafFactor(
                slot=chunk.index, r0=chunk.r0, r1=chunk.r1, V=v_view, T=t_view
            )
            rows = {"r0": chunk.r0, "r1": chunk.r1}
            op = ("tsqr_leaf", {**shared, **rows, "t": t_spec})
        # ("qleaf", K, slot) keys the WY factor this task deposits in
        # the panel's PanelQRStore — read later by the trailing updates
        # that apply the leaf reflector.
        name = f"P[{K}]leaf{chunk.index}"
        tid = em.task(
            name,
            "P",
            Cost.of("geqrt", chunk.rows, bk, library=library),
            op,
            reads=chunk.blocks(K),
            writes=chunk.blocks(K) + [("qleaf", K, chunk.index)],
            guard=em.block_guards and finite_block_guard(A, chunk.r0, chunk.r1, c0, c1, name),
        )
        leaves.append((chunk, tid, t_spec))

    merge_steps: list[MergeStep] = []
    for lvl, level in enumerate(reduction_schedule(len(chunks), tree), start=1):
        for dst_pos, src_pos in level:
            dst = chunks[dst_pos]
            srcs = [chunks[p] for p in src_pos if p != dst_pos]
            ordinal = len(merge_steps)
            rblocks = [(dst.b0, K)] + [(s.b0, K) for s in srcs]
            op, pairs = None, []
            if numeric:
                for src in srcs:
                    vb_view, vb_spec = store.alloc((bk, bk), dtype)
                    t_view, t_spec = store.alloc((bk, bk), dtype)
                    pairs.append((dst.r0, src.r0, vb_spec, t_spec))
                    qstore.merges.append(
                        MergeFactor(top0=dst.r0, bot0=src.r0, r=bk, Vb=vb_view, T=t_view)
                    )
                op = ("tsqr_merge", {**shared, "bk": bk, "pairs": pairs})
            name = f"P[{K}]merge{dst.index}<{','.join(str(s.index) for s in srcs)}"
            tid = em.task(
                name,
                "P",
                Cost.of("tpqrt_tt", 2 * bk, bk, bk, count=len(srcs), library=library),
                op,
                reads=rblocks,
                writes=rblocks + [("qmerge", K, ordinal)],
                guard=em.block_guards and finite_block_guard(A, dst.r0, dst.r0 + bk, c0, c1, name),
            )
            merge_steps.append(
                MergeStep(tid=tid, level=lvl, dst=dst, srcs=srcs, ordinal=ordinal, pairs=pairs)
            )
    return leaves, merge_steps


def replayed(C, m: int, steps) -> np.ndarray:
    """A float copy of *C* (``(m,)`` or ``(m, p)``) with each of *steps*
    (``PanelQRStore.apply_q``/``apply_qt``) applied in place, in order."""
    W = np.array(C, dtype=float, copy=True).reshape(m, -1)
    for step in steps:
        step(W)
    return W[:, 0] if np.ndim(C) == 1 else W


@dataclass
class TSQRFactorization:
    """Result of :func:`tsqr`: ``A = Q R`` with implicit ``Q``."""

    m: int
    n: int
    store: PanelQRStore
    R: np.ndarray
    tr: int
    tree: TreeKind

    def apply_qt(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q^T C`` (``C`` is ``(m, p)`` or ``(m,)``)."""
        return replayed(C, self.m, [self.store.apply_qt])

    def apply_q(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q C`` (``C`` is ``(m, p)`` or ``(m,)``)."""
        return replayed(C, self.m, [self.store.apply_q])

    def q_explicit(self) -> np.ndarray:
        """The thin ``Q`` (``m x n``), formed by applying ``Q`` to ``[I; 0]``."""
        return self.apply_q(np.eye(self.m, self.n))

    def solve_ls(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - rhs||`` via ``Q R``."""
        import scipy.linalg

        y = self.apply_qt(rhs)
        return scipy.linalg.solve_triangular(self.R, y[: self.n])


def tsqr(
    A: np.ndarray,
    tr: int = 4,
    tree: TreeKind = TreeKind.FLAT,
    executor=None,
):
    """QR-factor one tall-skinny panel with a reduction tree.

    The paper's standalone TSQR (Figure 8): up to 5.3x faster than
    ``MKL_dgeqrf`` on ``10^5 x 200``.  Default tree is the height-1
    (flat) tree the paper found best on shared memory.
    ``executor="auto"`` behaves as in :func:`~repro.core.calu.calu` (a
    standalone panel autotunes as a one-panel QR).

    A panel factored *out of core* is :func:`repro.core.outofcore.tsqr_ooc`'s.

    *A* is copied to the working buffer (on the heap, or onto the
    shared-memory arena for the process backend), never factored in
    place; a repeated shape reuses its plan as in
    :func:`~repro.core.calu.calu`, and the result owns its memory.
    """
    from repro.core.driver import TSQR, factorize

    return factorize(
        TSQR,
        A,
        tr=tr,
        tree=tree,
        executor=executor,
    )
