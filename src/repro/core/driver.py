"""One driver: the pipeline every factorization entry point runs.

The paper's Algorithm 1 (CALU) and Algorithm 2 (CAQR) are one task
skeleton — a panel reduction, then updates under look-ahead — that
differs only in kernels, and the standalone panels (TSLU, TSQR) are its
first step alone.  The difference is an :class:`Algorithm` record; the
steps around its builder are written once, in :func:`factorize`.
``calu``/``caqr``/``tsqr``/``tslu`` are that call under their public
keyword signatures; the service's plans, the autotuner's symbolic
graphs and the verify targets look their algorithm up in the same table
(:data:`ALGORITHMS`, :func:`algorithm`) and use the same record.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.calu import CALUFactorization, calu_program, panel_verdicts
from repro.core.caqr import CAQRFactorization, caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.core.tslu import tslu_program
from repro.core.tsqr import TSQRFactorization, tsqr_program
from repro.machine.autotune import recommend_params
from repro.resilience.checkpoint import SNAPSHOT_FORMAT, restore_matrix
from repro.resilience.health import validate_matrix
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.fuse import fuse_program
from repro.runtime.process import staged
from repro.runtime.program import supports_streaming

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "TSLU",
    "TSQR",
    "algorithm",
    "factorize",
    "guard_finite",
    "validate_knobs",
]


@dataclass(frozen=True)
class Algorithm:
    """What tells one factorization from another.

    ``program(layout, tr, tree, *, A=None, store=None, leaf_kernel=...,
    guards=..., checkpoint=..., **build)`` returns ``(GraphProgram,
    state)`` — symbolic when ``A`` is None.  *state* is the per-panel
    list (each entry speaks ``to_arrays()``/``restore()``/``reset()``),
    or a standalone panel's single one.  ``result(A, state, detach, *,
    layout, tr, tree, trace)`` assembles what the public driver returns,
    every array that outlives the run passed through *detach*.
    """

    kind: str  #: what the autotuner and the service call it: "lu" | "qr"
    name: str  #: in messages and (lower-cased) checkpoint signatures
    tree: TreeKind  #: the paper's default reduction tree
    leaf_kernels: tuple[str, ...]  #: valid ``leaf_kernel=`` values, default first
    program: Callable
    result: Callable
    panel: bool = False  #: one standalone tall-skinny panel: ``m >= n``, ``b = n``


def _calu_result(A, panels, detach, *, layout, tr, tree, trace):
    piv, degraded, recovered = panel_verdicts(layout, panels)
    return CALUFactorization(
        lu=detach(A),
        piv=piv,
        b=layout.b,
        tr=tr,
        tree=tree,
        trace=trace,
        degraded_panels=degraded,
        recovered_panels=recovered,
    )


def _caqr_result(A, panels, detach, *, layout, tr, tree, trace):
    panels = [qs.detached(detach) for qs in panels]
    return CAQRFactorization(detach(A), panels, b=layout.b, tr=tr, tree=tree, trace=trace)


def _tslu_result(A, ws, detach, **_):
    return detach(A), np.array(ws.piv)


def _tsqr_result(A, qstore, detach, *, layout, tr, tree, trace):
    R = np.triu(A[: layout.n, :])  # np.triu already allocates a fresh array
    return TSQRFactorization(layout.m, layout.n, qstore.detached(detach), R, tr=tr, tree=tree)


#: The full factorizations, by the kind the autotuner and the service key on.
ALGORITHMS = {
    "lu": Algorithm("lu", "CALU", TreeKind.BINARY, ("rgetf2", "getf2"), calu_program, _calu_result),
    "qr": Algorithm("qr", "CAQR", TreeKind.FLAT, ("geqr3", "geqr2"), caqr_program, _caqr_result),
}


def _panel(base: Algorithm, name: str, builder: Callable, result: Callable) -> Algorithm:
    """A standalone panel: *base*'s kind and kernels, its own builder and
    result.  The panel drivers expose neither guards nor checkpoints, so
    those arrive at their defaults and stop here."""

    def program(layout, tr, tree, *, A, store, leaf_kernel, **_):
        return builder(A, tr, tree, leaf_kernel=leaf_kernel, store=store)

    return replace(base, name=name, panel=True, program=program, result=result)


TSLU = _panel(ALGORITHMS["lu"], "TSLU", tslu_program, _tslu_result)
TSQR = _panel(ALGORITHMS["qr"], "TSQR", tsqr_program, _tsqr_result)


def algorithm(kind: str) -> Algorithm:
    """Look *kind* up in :data:`ALGORITHMS`; a clear error for a stranger."""
    try:
        return ALGORITHMS[kind]
    except KeyError:
        raise ValueError(
            f"unknown factorization kind {kind!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None


def validate_knobs(alg: Algorithm, *, tr, leaf_kernel, fuse=None) -> None:
    """Reject the knob values that would otherwise fail late or silently:
    ``tr < 1`` surfaced as a complaint about worker counts, an unknown
    *leaf_kernel* fell through to the unblocked kernel, and a
    nonsensical *fuse* meant "no fusion"."""
    if not isinstance(tr, (int, np.integer)) or tr < 1:
        raise ValueError(f"tr must be an int >= 1, got {tr!r}")
    if leaf_kernel not in alg.leaf_kernels:
        raise ValueError(
            f"unknown leaf_kernel {leaf_kernel!r} for {alg.name}; "
            f"expected one of {alg.leaf_kernels}"
        )
    if not (fuse is None or (isinstance(fuse, int) and fuse >= 1)):
        raise ValueError(f"fuse must be None or an int >= 1, got {fuse!r}")


def guard_finite(alg: Algorithm, A: np.ndarray, trace=None) -> None:
    """Last line of defense: a corruption that landed outside every
    guarded block (e.g. in an already-finished region) must still
    surface as a structured failure, never as wrong factors."""
    if not np.isfinite(A).all():
        raise RuntimeFailure(
            f"{alg.name} produced non-finite factors (undetected corruption)",
            failure_kind="health",
            trace=trace,
        )


def _resume(checkpoint, signature: dict, A, layout, program, source, panels):
    """Bind *checkpoint* to this computation and restore its newest
    boundary; returns the journal the run must log to."""
    usable = checkpoint.prepare(signature)
    resumed_from, snaps = restore_matrix(A, layout, checkpoint) if usable else (-1, {})
    # The journal from a crashed run holds mid-panel completions whose
    # effects are NOT in the restored matrix (it carries the *boundary*
    # state); reseed it with exactly the tasks the snapshot covers.
    journal = checkpoint.journal()
    journal.reset()
    journal.bind(source)
    if resumed_from >= 0:
        # Window K holds every task of iteration K, so emitting through
        # the resumed boundary makes the journaled prefix enumerable
        # (no-op on the eager path) and creates the covered panels'
        # state for the snapshots to refill.  An epilogue window (CALU's
        # left swaps) lies past every boundary: snapshots are taken
        # before it, so it always re-runs.
        program.emit_through(resumed_from)
        checkpoint.restore_panels(snaps, panels)
        covered = program.graph.tasks[: program.windows[resumed_from][1]]
        journal.mark_completed(t.name for t in covered)
    return journal


def factorize(
    alg: Algorithm,
    A: np.ndarray,
    *,
    b: int | None = None,
    tr: int,
    tree: TreeKind,
    executor=None,
    leaf_kernel: str,
    overwrite: bool = False,
    check_finite: bool = True,
    guards: bool = True,
    checkpoint=None,
    fuse: int | None = None,
    **build,
):
    """Run *alg* on *A*; returns ``alg.result(...)``.

    The keywords are those of :func:`repro.core.calu.calu`; *build*
    holds whatever else the algorithm's program builder takes
    (``lookahead``, and CALU's ``update_width``/``abft``/``recompute``).
    The steps: **validate** the knobs and the matrix; **stage** the
    matrix where the executor's tasks reach it (``executor="auto"``
    consults the autotuner with the problem's shape); **build** the
    program over the binding; **fuse** it (``fuse=``, else the
    autotuner's ``max_ops``); **resume** from *checkpoint* (matrix and
    panel state restored to the newest boundary, the journal reseeded
    with what that covers); aim an untargeted **fault plan** at the
    working matrix; **run**; record the **autotune** decision on the
    trace; **guard** against non-finite factors; **flush** the
    checkpoint writer; **detach** the result from the binding.
    """
    validate_knobs(alg, tr=tr, leaf_kernel=leaf_kernel, fuse=fuse)
    A = validate_matrix(A, "A", require_finite=check_finite)
    # check_finite=False means the caller opted into non-finite input
    # ("garbage in"); the finiteness guards would only fight that.
    guards = guards and check_finite
    m, n = A.shape
    if alg.panel:
        if m < n:
            raise ValueError(f"{alg.name.lower()} requires a tall panel (m >= n), got {A.shape}")
        b = n
    elif b is None:
        b = recommend_params(m, n, kind=alg.kind).b
    layout = BlockLayout(m, n, b)
    hints = {"kind": alg.kind, "m": m, "n": n, "b": b, "tr": tr, "tree": tree}
    with staged(A, executor, min(tr, 4), overwrite=overwrite, hints=hints) as (
        executor,
        store,
        decision,
    ):
        A = store.A
        if fuse is None and decision is not None:
            fuse = decision.max_ops
        program, state = alg.program(
            layout,
            tr,
            tree,
            A=A,
            store=store,
            leaf_kernel=leaf_kernel,
            guards=guards,
            checkpoint=checkpoint,
            **build,
        )
        if fuse is not None and fuse > 1:
            # Per-window rewrite: the resume still addresses windows by
            # panel iteration, and checkpoint (X) tasks keep their
            # identity inside the fused program.
            program = fuse_program(program, max_ops=fuse)
        # Engine-backed executors consume the streaming program directly,
        # keeping graph construction off the critical path; a caller-made
        # (duck-typed) executor gets the materialized eager graph, which
        # is the historical contract.
        source = program if supports_streaming(executor) else program.materialize()
        journal = None
        if checkpoint is not None:
            signature = {
                "algo": alg.name.lower(),
                "format": SNAPSHOT_FORMAT,
                "m": m,
                "n": n,
                "b": int(b),
                "tr": int(tr),
                "tree": tree.value,
                "leaf_kernel": leaf_kernel,
                **build,
                "a_digest": zlib.crc32(A.tobytes()),
            }
            journal = _resume(checkpoint, signature, A, layout, program, source, state)
        plan = getattr(executor, "fault_plan", None)
        if plan is not None and plan.target is None:
            plan.target = A
        trace = (
            executor.run(source, journal=journal) if journal is not None else executor.run(source)
        )
        if decision is not None:
            trace.events.append(decision.event())
        if guards:
            guard_finite(alg, A, trace)
        if checkpoint is not None:
            # Drain the async snapshot writer so a completed run leaves
            # its full chain on disk (and any write error surfaces here
            # rather than being dropped with the daemon thread).
            checkpoint.flush()
        return alg.result(A, state, store.detach, layout=layout, tr=tr, tree=tree, trace=trace)
