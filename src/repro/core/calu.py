"""Multithreaded CALU — Algorithm 1 of the paper.

Block LU factorization ``Π A = L U`` with ca-pivoting.  Each iteration
``K`` emits:

* task **P** — the TSLU tournament for panel ``K`` (``?getrf`` at every
  node of the reduction tree + finalize), see :mod:`repro.core.tslu`;
* task **L** — one ``dtrsm`` per row range computing a block of the
  current column of ``L``;
* task **U** — per trailing segment: apply the panel's row swaps, then
  ``dtrsm`` for the segment's block row of ``U``;
* task **S** — per (row range, trailing segment): the ``dgemm``
  trailing update;
* one final **X** task applying the deferred row swaps to the left
  part of ``L`` (Algorithm 1 line 41, ``dlaswap``).

A row range is one of the panel's ``Tr`` row chunks below the pivot
block, and a trailing segment one block column, unless that grain
would leave a task with less work than the runtime spends on it
(:data:`MIN_TASK_FLOPS`): then consecutive chunks stack into one range
and the block columns behind the look-ahead one group into one segment
(the paper's §V "reducing the number of tasks").

The loop over ``K`` is :func:`repro.core.panelloop.panel_program`, which
CAQR shares; this module supplies its LU steps.  Dependencies are
discovered from block read/write sets; static task priorities encode
the look-ahead-1 schedule (see :mod:`repro.core.priorities`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.layout import BlockLayout
from repro.core.panelloop import Emitter, grain_runs, panel_program
from repro.core.priorities import task_priority
from repro.core.trees import TreeKind
from repro.core.tslu import PanelWorkspace, add_tslu_tasks
from repro.kernels.lu import piv_to_perm
from repro.resilience.abft import gemm_abft_guard, gemm_checksums
from repro.resilience.health import finite_block_guard
from repro.runtime.graph import TaskGraph
from repro.runtime.ops import calu_s_blocks, op_task, run_op
from repro.runtime.program import GraphProgram
from repro.runtime.task import Cost, TaskKind
from repro.runtime.trace import Trace

__all__ = [
    "MIN_TASK_FLOPS",
    "CALUFactorization",
    "calu",
    "calu_program",
    "panel_verdicts",
]

#: The least work, in flops, a trailing-update task is cut to carry:
#: about the 20 µs the runtime spends on a task (engine bookkeeping and
#: its guard), at a small ``dgemm``'s 25–50 GFLOP/s.  A task's cost to
#: the runtime, not a tuning knob: row chunks below the pivot block
#: stack, and the block columns behind the look-ahead window group,
#: until their S work per block column, resp. per segment, reaches it.
MIN_TASK_FLOPS = 2**19


def _s_fn_abft(payload: dict, cell: list):
    """An S task's body that also posts Huang-Abraham checksums.

    The expected row/column sums of ``C - L U`` are computed from the
    pre-update operands and left in *cell* for the task's ABFT health
    guard, which runs after any injected corruption and repairs a
    single bad element in place.  The update itself is the one
    ``calu_s`` body.
    """

    def fn() -> None:
        cell[0] = gemm_checksums(*calu_s_blocks(payload))
        run_op(("calu_s", payload))

    return fn


def _corrupt_block(A: np.ndarray, r0: int, r1: int, j0: int, j1: int):
    """Corruption hook for an S task: flip one element of its output
    block to a large finite value (a bit-flip-style soft error)."""

    def corrupt() -> bool:
        block = A[r0:r1, j0:j1]
        if block.size == 0:
            return False
        i, j = (r1 - r0) // 2, (j1 - j0) // 2
        block[i, j] = block[i, j] * 3.0 + 1e6
        return True

    return corrupt


def calu_program(
    layout: BlockLayout,
    tr: int,
    tree: TreeKind = TreeKind.BINARY,
    *,
    A: np.ndarray | None = None,
    lookahead: int | None = None,
    library: str = "repro",
    update_width: int | None = None,
    update_library: str | None = None,
    guards: bool = True,
    checkpoint=None,
    abft: bool = False,
    store=None,
) -> tuple[GraphProgram, list[PanelWorkspace]]:
    """Build the CALU task graph as a :class:`GraphProgram`.

    The program (:func:`repro.core.panelloop.panel_program` over the LU
    steps below) has one window per panel iteration ``K`` (TSLU
    tournament, L, U, S and optional ``C[K]`` checkpoint tasks) plus,
    past one panel, an epilogue window holding the deferred left-swap
    task; over ``BlockLayout(m, n, b=n)`` it is the standalone TSLU
    panel (P and L in one window).  ``materialize()`` emits the windows
    in order into one graph (:func:`repro.core.driver.compile` does so
    once per plan; the verify/DOT/analysis tooling reads the same).

    With ``A`` given (an ``m x n`` array factored in place), tasks are
    numeric — every P/L/U/S step and the left swaps a descriptor run by
    :func:`repro.runtime.ops.run_op`; with ``A=None`` the graph is
    symbolic and only carries costs (used to simulate paper-scale
    problems).  Returns ``(program, per-panel workspaces)``; the
    workspace list fills as panel windows are emitted.

    With *guards* (the default, numeric runs only) the TSLU tasks carry
    corruption detectors that send the finalize to the tournament replay,
    the finalize tasks monitor pivot growth, and every trailing-update
    (S) task carries a finiteness guard over the block it wrote — so a
    corrupted run can never return silently wrong factors.  (Over a
    streamed matrix only the guards on workspace buffers and the pivot
    block are armed: see :mod:`repro.core.panelloop`.)

    The update grain follows :data:`MIN_TASK_FLOPS`: the L/S row ranges
    stack the panel's chunks, and the segments behind the look-ahead
    window group block columns, until each carries that much S work
    (:func:`repro.core.panelloop.trailing_segments`).
    ``update_width`` implements the paper's Section V extension instead:
    a trailing-update block size ``B > b`` — trailing column segments
    are grouped into uniform super-segments of up to ``B`` columns,
    reducing the task count and improving BLAS3 granularity at some
    cost in look-ahead depth.  ``update_library`` prices the U/S update tasks
    under a different library personality (the paper's closing
    suggestion: "combining a fast panel factorization as in CALU with a
    highly optimized update of the trailing matrix as in MKL_dgetrf").

    *checkpoint* (a :class:`~repro.resilience.checkpoint.Checkpoint`,
    numeric runs only) adds one ``C[K]`` snapshot task per selected
    panel boundary, reading every block iteration ``K`` wrote so the
    block tracker serializes it before any iteration-``K+1`` writer.
    *abft* replaces the S tasks' finiteness guard with Huang-Abraham
    checksum verification that repairs single-element corruption in
    place.

    *store* binds *A* and the per-panel workspace buffers (numeric runs
    only): the default is a :class:`~repro.runtime.tilestore.HeapBinding`
    of *A*; with a :class:`~repro.runtime.shm.ShmBinding` whose matrix
    view **is** *A* the same descriptors are also published as
    ``meta["op"]`` so a :class:`~repro.runtime.process.ProcessExecutor`
    dispatches them to worker processes.  Checkpoint and ABFT tasks are
    parent-only closures and run inline in the parent.
    """
    numeric = A is not None
    m, b = layout.m, layout.b
    upd_lib = update_library or library
    # The §V grain (update_width) is the paper's: Tr row chunks, B-column segments.
    floor = MIN_TASK_FLOPS if update_width is None else 0
    # The growth monitor's reference magnitude reads the whole matrix —
    # over a streamed panel a counted load of it, so in core only.
    absmax = float(np.abs(A).max()) if guards and isinstance(A, np.ndarray) and A.size else None

    def panel(em: Emitter, chunks, ws):
        K = em.K
        k0, bk = K * b, layout.panel_width(K)
        add_tslu_tasks(em, layout, chunks, tree, ws, library=library, absmax=absmax)
        # What every L/U/S descriptor of this panel shares: the matrix
        # and the pivot block's corner, width and columns.
        shared = numeric and {
            "a": em.store.a_spec, "m": m, "k0": k0, "bk": bk, "c0": k0, "c1": k0 + bk
        }
        # The chunks' rows below the pivot block, ``(slot, r0, r1, their
        # blocks of column K)``: one L task per row range, and one S task
        # per (row range, trailing segment).
        below = [
            (c.index, r0, c.r1, [(i, K) for i in range(r0 // b, c.b1)])
            for c in chunks
            if (r0 := max(c.r0, k0 + bk)) < c.r1
        ]
        if k0 + bk < layout.n:
            # Stack consecutive chunks until a range's S work per block
            # column reaches the floor.  A panel with no trailing column
            # has no S work to stack for: its L tasks keep the chunk
            # height (a streamed panel's loads included).
            runs = grain_runs([2 * (r1 - r0) * bk * b for _, r0, r1, _ in below], floor)
            below = [
                (*below[i][:2], below[j - 1][2], [blk for *_, lb in below[i:j] for blk in lb])
                for i, j in runs
            ]
        # Task L: blocks of the current column of L (dtrsm).
        for slot, r0, r1, lblocks in below:
            em.task(
                f"L[{K}]{slot}",
                "L",
                Cost.of("trsm_runn", r1 - r0, 0, bk, library=library),
                shared and ("calu_l", {**shared, "r0": r0, "r1": r1}),
                reads=[(K, K)],
                writes=lblocks,
            )
        return (shared, below, bk, ws), [("piv", K)]

    def update(em: Emitter, handles, J: int, j0: int, j1: int, jcols: list[int]) -> None:
        # Tasks U and S of one trailing segment: the block columns *jcols*.
        shared, below, bk, ws = handles
        K, nc = em.K, j1 - j0
        u_tid = em.task(
            f"U[{K}]{J}",
            "U",
            # The panel's row swaps ride on the solve: nc columns, both ways.
            Cost.of("trsm_llnu", bk, nc, bk, extra_words=2.0 * bk * nc, library=upd_lib),
            shared and ("calu_u", {**shared, "j0": j0, "j1": j1, "piv": ws.piv_spec}),
            J=J,
            # The row swaps consume the panel's pivot sequence, so
            # ("piv", K) joins the read footprint alongside the
            # factored diagonal block.
            reads=[(K, K), ("piv", K)],
            writes=[blk for Jc in jcols for blk in layout.active_blocks(K, Jc)],
        )
        u_row = [(K, Jc) for Jc in jcols]
        for slot, r0, r1, lblocks in below:
            name = f"S[{K}]{slot},{J}"
            op = shared and ("calu_s", {**shared, "r0": r0, "r1": r1, "j0": j0, "j1": j1})
            fn, guard, hooks = None, None, {}
            if em.block_guards and abft:
                # The checksum cell lives in the parent process, so an
                # ABFT S task is a parent-only closure: no descriptor.
                cell: list = [None]
                fn, op = _s_fn_abft(op[1], cell), None
                guard = gemm_abft_guard(A, r0, r1, j0, j1, cell, name)
                hooks = {"corrupt": _corrupt_block(A, r0, r1, j0, j1)}
            elif em.block_guards:
                guard = finite_block_guard(A, r0, r1, j0, j1, name)
            em.task(
                name,
                "S",
                Cost.of("gemm", r1 - r0, nc, bk, library=upd_lib),
                op,
                fn=fn,
                J=J,
                reads=lblocks + u_row,
                writes=[(i, Jc) for Jc in jcols for i, _ in lblocks],
                deps=[u_tid],
                guard=guard,
                **hooks,
            )

    def epilogue(graph: TaskGraph, workspaces: list[PanelWorkspace], store) -> None:
        # Deferred left swaps (Algorithm 1 line 41).  Depends on all
        # sinks, i.e. transitively on the entire factorization: window
        # ordering guarantees every panel window is already emitted.
        sinks = [t for t in range(len(graph.tasks)) if not graph.succs[t]]
        swap_words = 2.0 * sum(
            K * b * layout.panel_width(K) for K in range(1, layout.n_panels)
        )
        # Declared footprint (for the verify passes): panel K's swaps
        # touch rows [K*b, m) of every column left of the panel, i.e.
        # the strictly-sub-diagonal blocks of columns 0..n_panels-2,
        # driven by the pivot sequences of panels 1..n_panels-1.
        swap_blocks = frozenset(
            (i, J)
            for J in range(layout.n_panels - 1)
            for i in range(J + 1, layout.M)
        )
        swap_reads = swap_blocks | {("piv", K) for K in range(1, layout.n_panels)}
        fn, meta = None, {}
        if numeric:
            pivs = [ws.piv_spec for ws in workspaces[1:]]
            fn, meta = op_task(store, "calu_leftswaps", {"a": store.a_spec, "m": m, "b": b, "pivs": pivs})
        graph.add(
            "leftswaps",
            TaskKind.X,
            Cost("laswp", words=swap_words, library=library),
            fn=fn,
            deps=sinks,
            priority=task_priority("X", layout.n_panels),
            iteration=layout.n_panels - 1,
            reads=swap_reads,
            writes=swap_blocks,
            **meta,
        )

    return panel_program(
        "calu", layout, tr, PanelWorkspace, panel, update, epilogue, A=A, store=store,
        lookahead=lookahead, guards=guards, checkpoint=checkpoint, library=library,
        update_width=update_width, min_task_flops=floor,
    )


def panel_verdicts(layout: BlockLayout, workspaces: list[PanelWorkspace]):
    """What a finished run's workspaces say: ``(piv, recovered)``.

    *piv* is the global LAPACK-style swap sequence of length
    ``min(m, n)`` stitched from the per-panel ones; *recovered* the
    indices of the panels whose tournament was replayed.
    """
    piv = np.arange(min(layout.m, layout.n), dtype=np.int64)
    for K, ws in enumerate(workspaces):
        k0, bk = K * layout.b, layout.panel_width(K)
        piv[k0 : k0 + bk] = ws.piv[:bk] + k0
    recovered = tuple(K for K, ws in enumerate(workspaces) if ws.recomputed)
    return piv, recovered


@dataclass
class CALUFactorization:
    """Result of :func:`calu`: ``A[perm] = L U``.

    ``lu`` packs ``L`` (strictly below the diagonal, unit diagonal
    implicit) and ``U`` (on and above); ``piv`` is the global
    LAPACK-style swap sequence of length ``min(m, n)``.

    ``trace`` is the executor's schedule (with its resilience event
    log); ``recovered_panels`` lists the panels whose corrupted
    tournament was repaired by replaying it from clean panel data
    (pivots identical to a fault-free run).
    """

    lu: np.ndarray
    piv: np.ndarray
    b: int
    tr: int
    tree: TreeKind
    trace: Trace | None = None
    recovered_panels: tuple[int, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        return self.lu.shape

    @property
    def perm(self) -> np.ndarray:
        """Row permutation: ``A[perm] = L @ U``."""
        return piv_to_perm(self.piv, self.lu.shape[0])

    @property
    def L(self) -> np.ndarray:
        m, n = self.lu.shape
        r = min(m, n)
        L = np.tril(self.lu[:, :r], -1)
        np.fill_diagonal(L, 1.0)
        return L

    @property
    def U(self) -> np.ndarray:
        m, n = self.lu.shape
        return np.triu(self.lu[: min(m, n), :])

    def reconstruct(self) -> np.ndarray:
        """Recompute ``A`` from the factors (for verification)."""
        out = self.L @ self.U
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return out[inv]

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve ``A x = rhs`` (or ``A^T x = rhs`` with ``trans=True``).

        Square systems only.  With ``A = P^T L U`` the transposed solve
        is ``U^T w = rhs``, ``L^T y = w``, ``x[perm] = y`` — needed by
        the 1-norm condition estimator.
        """
        m, n = self.lu.shape
        if m != n:
            raise ValueError(f"solve requires a square factorization, got {self.lu.shape}")
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        B = rhs.reshape(m, -1)
        if not trans:
            y = B[self.perm]
            y = scipy.linalg.solve_triangular(self.lu, y, lower=True, unit_diagonal=True)
            x = scipy.linalg.solve_triangular(self.lu, y, lower=False)
        else:
            w = scipy.linalg.solve_triangular(self.lu, B, lower=False, trans="T")
            y = scipy.linalg.solve_triangular(self.lu, w, lower=True, unit_diagonal=True, trans="T")
            x = np.empty_like(y)
            x[self.perm] = y
        return x[:, 0] if squeeze else x


def calu(
    A: np.ndarray,
    b: int | None = None,
    tr: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    executor=None,
    lookahead: int | None = None,
    guards: bool = True,
    checkpoint=None,
    abft: bool = False,
) -> CALUFactorization:
    """Factor ``A`` with multithreaded CALU (Algorithm 1).

    Parameters
    ----------
    A : (m, n) array, finite (a NaN or Inf is a ``ValueError``); it is
        copied to the working buffer, never factored in place.
    b : panel width (paper default ``min(100, n)``).
    tr : number of panel tasks ``Tr`` (tournament leaves).
    tree : reduction tree shape.
    executor : a runtime executor; defaults to a
        :class:`~repro.runtime.threaded.ThreadedExecutor` with
        ``min(tr, 4)`` workers.  The string ``"auto"`` asks the
        machine-model autotuner (:mod:`repro.machine.autotune`) to pick
        the backend for this (shape, b, Tr); the decision is recorded
        as an ``autotune`` event on the returned trace.
    lookahead : scheduling look-ahead depth; ``None`` is the paper's 1.
        A priority rule: it ranks the updates of panels ``K+1..K+lookahead``.
    guards : attach numerical health guards to the task graph (see
        :func:`calu_program`); disabled, a corrupted run may
        raise from deep inside a kernel instead of failing at the
        guard that saw it.
    checkpoint : optional
        :class:`~repro.resilience.checkpoint.Checkpoint` arming the
        checkpoint/restart path: panel-boundary snapshots.  Call
        :func:`calu` again with the same *checkpoint* (and the same
        input ``A``) after a crash and the run resumes from the newest
        restorable boundary, skipping the tasks it covers, with
        **bitwise-identical** factors.
    abft : verify every trailing (S) update against Huang-Abraham
        checksums, repairing single-element corruption in place
        (recorded as ``abft_correct`` events) instead of aborting.

    A corrupted TSLU tournament is always replayed from clean panel
    data (identical pivots; recorded in ``recovered_panels``); a panel
    that is itself non-finite ends the run in a ``health``
    :class:`~repro.resilience.recovery.RuntimeFailure`.

    Returns a :class:`CALUFactorization`.  A repeated shape reuses its
    plan: a later call with the same shape, dtype, plane and knobs loads
    its matrix into the graph and buffers this one built
    (:func:`repro.core.driver.factorize`), so the result always owns its
    memory; a *checkpoint* run is compiled per call, and
    :func:`repro.close_plans` hands the kept plans' memory back.
    """
    from repro.core.driver import ALGORITHMS, factorize

    return factorize(
        ALGORITHMS["lu"],
        A,
        b=b,
        tr=tr,
        tree=tree,
        executor=executor,
        lookahead=lookahead,
        guards=guards,
        checkpoint=checkpoint,
        abft=abft,
    )
