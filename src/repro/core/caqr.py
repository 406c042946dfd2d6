"""Multithreaded CAQR — Algorithm 2 of the paper.

Block QR factorization ``A = Q R`` whose panel factorization is TSQR
(:mod:`repro.core.tsqr`).  Unlike CALU the panel is factored only
once, and the reduction tree that produced ``R`` also drives the
trailing-matrix update:

* task **P** — leaf QR of one row chunk of the panel and the
  ``[R_i; R_j]`` tree merges (structured ``tpqrt``);
* task **S** (leaf) — apply a leaf's block reflector to one trailing
  block column (``dlarfb``);
* task **S** (node) — apply a merge's ``[I; V_b]`` reflector to the two
  ``b``-row slices of a trailing block column (``tpmqrt``).

The P and node-S tasks run the vendor's kernels, as the paper's tasks
call MKL/ACML: LAPACK ``?geqrt`` at the leaves, ``?tpqrt`` at the
merges and ``?tpmqrt`` at the node updates.  Their ``Cost`` names the
leaf ``geqrt`` and the tree kernels ``tpqrt_tt`` / ``tpmqrt``.

``Q`` stays implicit (per-panel :class:`~repro.core.tsqr.PanelQRStore`),
so ``apply_q``/``apply_qt``/``solve_ls`` replay the trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter, panel_program
from repro.core.trees import TreeKind
from repro.core.tsqr import PanelQRStore, add_tsqr_tasks, replayed
from repro.resilience.health import finite_block_guard
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost
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
    guards: bool = True,
    checkpoint=None,
    store=None,
) -> tuple[GraphProgram, list[PanelQRStore]]:
    """Build the CAQR task graph as a :class:`GraphProgram`.

    :func:`repro.core.panelloop.panel_program` over the QR steps below:
    one window per panel iteration (TSQR tree, leaf/node trailing
    updates, optional ``C[K]`` checkpoint task); symbolic when ``A`` is
    None; over ``BlockLayout(m, n, b=n)`` the standalone TSQR panel.

    Returns ``(program, per-panel implicit-Q stores)``; the store list
    fills as panel windows are emitted.  With *guards* (numeric runs
    only) the panel tasks and trailing updates carry finiteness health
    guards: QR has no partial-pivoting fallback, so a corrupted panel
    surfaces as a fatal structured failure rather than silently wrong
    factors (they read matrix blocks, so a streamed matrix arms none:
    see :mod:`repro.core.panelloop`).  *checkpoint* adds per-boundary
    ``C[K]`` snapshot tasks exactly as in
    :func:`repro.core.calu.calu_program`.

    *store* binds *A* and the WY-factor buffers (numeric runs only):
    a :class:`~repro.runtime.tilestore.HeapBinding` of *A* by default;
    with a :class:`~repro.runtime.shm.ShmBinding` whose matrix view
    **is** *A* the P and S tasks' descriptors are also published as
    ``meta["op"]`` for :class:`~repro.runtime.process.ProcessExecutor`
    dispatch (see :func:`repro.core.calu.calu_program`).
    """
    numeric = A is not None

    def panel(em: Emitter, chunks, qstore):
        leaves, merges = add_tsqr_tasks(em, layout, chunks, tree, qstore, library=library)
        # Footprint keys of the implicit-Q factors the TSQR tasks
        # deposit in the PanelQRStore (read back by the trailing updates
        # and the checkpoint snapshots).
        keys = [("qleaf", em.K, chunk.index) for chunk, _, _ in leaves]
        keys += [("qmerge", em.K, step.ordinal) for step in merges]
        return (leaves, merges, layout.panel_width(em.K)), keys

    def update(em: Emitter, handles, J: int, j0: int, j1: int, jcols: list[int]) -> None:
        leaves, merges, bk = handles
        K, nc = em.K, j1 - j0
        shared = numeric and {"a": em.store.a_spec, "j0": j0, "j1": j1}
        vcols = {"c0": K * layout.b, "c1": K * layout.b + bk}  # the panel: where each V is packed
        # Leaf updates: one dlarfb per (chunk, segment).
        for chunk, tid, t_spec in leaves:
            name = f"S[{K}]leaf{chunk.index},{J}"
            em.task(
                name,
                "S",
                Cost.of("larfb", chunk.rows, nc, bk, library=library),
                shared
                and (
                    "caqr_leaf_update",
                    {**shared, **vcols, "r0": chunk.r0, "r1": chunk.r1, "t": t_spec},
                ),
                J=J,
                # V is read from the panel block, T out of the store:
                # ("qleaf", K, slot) carries that edge.
                reads=chunk.blocks(K) + [("qleaf", K, chunk.index)],
                writes=[blk for Jc in jcols for blk in chunk.blocks(Jc)],
                deps=[tid],
                guard=em.block_guards and finite_block_guard(A, chunk.r0, chunk.r1, j0, j1, name),
            )
        # Tree-node updates: tpmqrt on the R slices of each merge, per segment.
        for step in merges:
            blocks = [(c.b0, Jc) for Jc in jcols for c in (step.dst, *step.srcs)]
            name = f"S[{K}]node{step.dst.index}l{step.level},{J}"
            top = step.dst.r0
            em.task(
                name,
                "S",
                Cost.of("tpmqrt", bk, nc, bk, count=len(step.srcs), library=library),
                shared
                and (
                    "caqr_merge_update",
                    {**shared, "bk": bk, "pairs": step.pairs},
                ),
                J=J,
                reads=blocks + [("qmerge", K, step.ordinal)],
                writes=blocks,
                deps=[step.tid],
                guard=em.block_guards and finite_block_guard(A, top, top + bk, j0, j1, name),
            )

    return panel_program(
        "caqr", layout, tr, PanelQRStore, panel, update, A=A, store=store, lookahead=lookahead,
        guards=guards, checkpoint=checkpoint, library=library,
    )


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
        return replayed(C, self.m, [store.apply_qt for store in self.panels])

    def apply_q(self, C: np.ndarray) -> np.ndarray:
        """Return ``Q C`` for ``C`` of shape ``(m,)`` or ``(m, p)``."""
        return replayed(C, self.m, [store.apply_q for store in reversed(self.panels)])

    def q_explicit(self) -> np.ndarray:
        """The thin ``Q`` (``m x min(m, n)``)."""
        return self.apply_q(np.eye(self.m, min(self.packed.shape)))

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
    guards: bool = True,
    checkpoint=None,
) -> CAQRFactorization:
    """Factor ``A`` with multithreaded CAQR (Algorithm 2).

    Parameters mirror :func:`repro.core.calu.calu`; the default tree is
    the height-1 (flat) reduction the paper uses for its CAQR results.
    *checkpoint* arms the checkpoint/restart path: snapshots also carry
    the implicit-Q tree factors, so a resumed run returns a fully
    usable factorization with **bitwise-identical** ``R`` and ``Q``.
    ``executor="auto"`` behaves as in :func:`~repro.core.calu.calu`:
    the autotuner picks the backend.
    A repeated shape reuses its plan, as there: the result owns its
    memory, and :func:`repro.close_plans` hands the kept plans back.
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
        guards=guards,
        checkpoint=checkpoint,
    )
