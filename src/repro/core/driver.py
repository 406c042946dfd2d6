"""One driver: the pipeline every factorization entry point runs.

The paper's Algorithm 1 (CALU) and Algorithm 2 (CAQR) are one task
skeleton (:mod:`repro.core.panelloop`) — a panel reduction, then updates
under look-ahead — that differs only in its steps, and the standalone
panels (TSLU, TSQR) are that skeleton over the one-panel layout
``b = n``.  The difference is an :class:`Algorithm` record; the
steps around its builder are written once, in two halves:
:func:`compile` (stage, build, emit: a :class:`Plan`) and the plan's
load / run / result, which :func:`factorize` strings together with
resume.  ``calu``/``caqr``/``tsqr``/``tslu`` are that call under their
public keyword signatures.  A finished plan is kept for the next matrix
of its shape in a :class:`PlanPool` — one behind :func:`factorize`,
another instance of the class inside the service; the out-of-core
drivers compile theirs over a streamed binding; the autotuner's
symbolic graphs and the verify targets look their algorithm up in the
same table (:data:`ALGORITHMS`, :func:`algorithm`).
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
from repro.core.tsqr import TSQRFactorization
from repro.machine.autotune import recommend_params
from repro.resilience.checkpoint import SNAPSHOT_FORMAT, restore_matrix
from repro.resilience.health import validate_matrix
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.process import resolve_executor
from repro.runtime.shm import staged, working_dtype
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.sync import make_lock

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "Plan",
    "PlanPool",
    "TSLU",
    "TSQR",
    "algorithm",
    "close_plans",
    "compile",
    "factorize",
    "validate_knobs",
]


@dataclass(frozen=True)
class Algorithm:
    """What tells one factorization from another.

    ``program(layout, tr, tree, *, A=None, store=None, guards=...,
    checkpoint=..., **build)`` returns ``(GraphProgram,
    state)`` — symbolic when ``A`` is None.  *state* is the per-panel
    list (each entry speaks ``to_arrays()``/``restore()``/``reset()``).
    ``result(A, state, detach, *, layout, tr, tree, trace)`` assembles
    what the public driver returns, every array that outlives the run
    passed through *detach*.  A standalone *panel* is the same program
    over the one-panel layout ``b = n`` under its own name and result.
    """

    kind: str  #: what the autotuner and the service call it: "lu" | "qr"
    name: str  #: in messages and (lower-cased) checkpoint signatures
    tree: TreeKind  #: the paper's default reduction tree
    program: Callable
    result: Callable
    panel: bool = False  #: one standalone tall-skinny panel: ``m >= n``, ``b = n``


def _calu_result(A, panels, detach, *, layout, tr, tree, trace):
    piv, recovered = panel_verdicts(layout, panels)
    return CALUFactorization(
        lu=detach(A),
        piv=piv,
        b=layout.b,
        tr=tr,
        tree=tree,
        trace=trace,
        recovered_panels=recovered,
    )


def _caqr_result(A, panels, detach, *, layout, tr, tree, trace):
    packed = detach(A)
    panels = [qs.detached(detach, packed) for qs in panels]
    return CAQRFactorization(packed, panels, b=layout.b, tr=tr, tree=tree, trace=trace)


def _tslu_result(A, panels, detach, **_):
    return detach(A), np.array(panels[0].piv)


def _tsqr_result(A, panels, detach, *, layout, tr, tree, trace):
    R = np.triu(A[: layout.n, :])  # np.triu already allocates a fresh array
    store = panels[0].detached(detach, detach(A))  # the leaves' V stays packed in A
    return TSQRFactorization(layout.m, layout.n, store, R, tr=tr, tree=tree)


#: The full factorizations, by the kind the autotuner and the service key on.
ALGORITHMS = {
    "lu": Algorithm("lu", "CALU", TreeKind.BINARY, calu_program, _calu_result),
    "qr": Algorithm("qr", "CAQR", TreeKind.FLAT, caqr_program, _caqr_result),
}


TSLU = replace(ALGORITHMS["lu"], name="TSLU", panel=True, result=_tslu_result)
TSQR = replace(ALGORITHMS["qr"], name="TSQR", panel=True, result=_tsqr_result)


def algorithm(kind: str) -> Algorithm:
    """Look *kind* up in :data:`ALGORITHMS`; a clear error for a stranger."""
    try:
        return ALGORITHMS[kind]
    except KeyError:
        raise ValueError(
            f"unknown factorization kind {kind!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None


def validate_knobs(*, tr) -> None:
    """Reject the knob values that would otherwise fail late: ``tr < 1``
    surfaced as a complaint about worker counts."""
    if not isinstance(tr, (int, np.integer)) or tr < 1:
        raise ValueError(f"tr must be an int >= 1, got {tr!r}")


#: A task in a kept graph — the object, its footprint sets, its
#: descriptor and its edges — measured at 3-4 KiB on the paper's shapes.
_TASK_BYTES = 4096


class Plan:
    """One compiled factorization: *alg*'s program over one staged
    working buffer ``A`` — the half of the pipeline ``(shape, b, tr,
    tree)`` alone decide, as tournament pivoting keeps every row swap
    inside a task's declared footprint.  The other half takes a matrix:
    :func:`compile` copies the first in, :meth:`load` any later one;
    :meth:`run` then :meth:`result` follow either, one run at a time."""

    def __init__(self, alg, layout, tr, tree, store, arena, program, state, guards):
        self.alg, self.layout, self.tr, self.tree = alg, layout, tr, tree
        self.store, self.A, self._arena = store, store.A, arena  # an arena staged here
        self.program, self.state = program, state
        self.guards = guards
        self.decision = None  # the autotuner's, set by the run that asked for one
        self._emit_s = program.emit_seconds  # compile's emission, reported by the first run

    def load(self, A: np.ndarray) -> None:
        """Copy the next matrix in and forget the previous one: the
        per-panel state lives only in the panels' store buffers (all
        made by compile's emission), so resetting those is the whole
        reset on every plane, and re-arms CALU's growth monitor at this
        magnitude — measured only when some panel's monitor is armed
        (never for QR)."""
        self.A[...] = A
        armed = any(panel.absmax is not None for panel in self.state)
        absmax = float(np.abs(A).max()) if armed else None
        for panel in self.state:
            panel.reset(absmax)

    def run(self, executor, journal=None):
        """Run the graph on *executor*, an untargeted fault plan aimed
        at the working buffer for this run only; record on the trace the
        emission the run paid (``emit_seconds``: compile's on a plan's
        first run, 0.0 on a reuse) and the autotune decision."""
        fault_plan = getattr(executor, "fault_plan", None)
        aimed = fault_plan is not None and fault_plan.target is None
        if aimed:
            fault_plan.target = self.A
        graph = self.program.graph
        try:
            trace = executor.run(graph) if journal is None else executor.run(graph, journal=journal)
        finally:
            if aimed:
                fault_plan.target = None
        emit_s, self._emit_s = self._emit_s, 0.0
        if trace is None:  # a caller's duck-typed executor may return none
            return trace
        trace.stats["emit_seconds"] = emit_s
        if self.decision is not None:
            trace.events.append(self.decision.event())
        return trace

    def result(self, trace, detach=lambda array: array):
        """Guard the factors and assemble ``alg.result``: views of the
        plan's buffers, valid while it is held and not reloaded, unless
        *detach* (a binding's ``detach``, ``np.array``) copies them out."""
        # Last line of defense: a corruption that landed outside every
        # guarded block (e.g. in an already-finished region) must still
        # surface as a structured failure, never as wrong factors.
        if self.guards and not np.isfinite(self.A).all():
            raise RuntimeFailure(
                f"{self.alg.name} produced non-finite factors (undetected corruption)",
                failure_kind="health",
                trace=trace,
            )
        return self.alg.result(
            self.A, self.state, detach, layout=self.layout, tr=self.tr, tree=self.tree, trace=trace
        )

    @property
    def nbytes(self) -> int:
        """What keeping this plan costs: its working buffer and workspace,
        and :data:`_TASK_BYTES` for each task emitted so far."""
        return self.store.nbytes + _TASK_BYTES * len(self.program)

    def close(self) -> None:
        """Release the plane: unlink an arena staged here (idempotent)."""
        if self._arena is not None:
            self._arena.destroy()


def compile(
    alg: Algorithm,
    A,
    *,
    b: int | None = None,
    tr: int,
    tree: TreeKind,
    shared: bool = False,
    guards: bool = True,
    **build,
) -> Plan:
    """Validate the knobs, stage, build, emit — the only place that
    sequence occurs — into the :class:`Plan` :func:`factorize` runs
    once, the service caches and the out-of-core drivers run.

    *A* is the matrix (copied to the working buffer: on a shared-memory
    arena with *shared*, else on the heap), a shape (an empty buffer to
    :meth:`Plan.load` into), or a binding the caller staged and keeps
    (the streamed plane); a standalone panel is one block column
    whatever *b* says.  The program is the builder's, task for task,
    emitted whole here, so no run emits; *build* is the builder's own
    (``checkpoint``, ...).
    """
    validate_knobs(tr=tr)
    store, arena = staged(A, shared)
    try:
        m, n = store.A.shape
        layout = BlockLayout(m, n, n if alg.panel else b)
        program, state = alg.program(
            layout, tr, tree, A=store.A, store=store, guards=guards, **build
        )
        program.materialize()
    except BaseException:
        if arena is not None:
            arena.destroy()
        raise
    return Plan(alg, layout, tr, tree, store, arena, program, state, guards)


class PlanPool:
    """The idle plans, kept for the next matrix of their key.

    A plan in use is held by its run alone, so :meth:`checkout` never
    waits: it pops the most recently used idle plan of *key* (a *hit*)
    or returns None and the caller compiles (a *build*).
    :meth:`checkin` brings a plan back — closing it when its run raised
    (``ok=False``: a worker may still write into its arena) or when it
    alone exceeds *bound* (an *ephemeral* build) — then closes the least
    recently used idle plans beyond *bound*, which counts plans unless
    *size* prices one; after :meth:`shut` it only closes the plan.
    Nothing is compiled or closed under the lock.
    """

    def __init__(self, bound: int, size: Callable[[Plan], int] = lambda plan: 1) -> None:
        self.bound, self._size = bound, size
        self._lock = make_lock("driver.plans")
        self._idle: list[tuple[tuple, Plan, int]] = []  # least recently used first
        self._counts = {"hits": 0, "builds": 0, "ephemeral": 0}
        self._shut = False

    def checkout(self, key: tuple) -> Plan | None:
        with self._lock:
            for i in reversed(range(len(self._idle))):
                if self._idle[i][0] == key:
                    self._counts["hits"] += 1
                    return self._idle.pop(i)[1]
            self._counts["builds"] += 1
        return None

    def fits(self, plan: Plan) -> bool:
        """Whether a check-in would keep *plan* (were its run to succeed)."""
        return self._size(plan) <= self.bound

    def checkin(self, key: tuple, plan: Plan, ok: bool = True) -> None:
        size = self._size(plan)
        closing = [plan]
        with self._lock:
            if self._shut:  # a straggler of a closed owner: close it, count nothing
                pass
            elif size > self.bound:  # never kept, so it was never a hit
                self._counts["builds"] -= 1
                self._counts["ephemeral"] += 1
            elif ok:
                self._idle.append((key, plan, size))
                closing = self._evict()
        for old in closing:
            old.close()

    def _evict(self) -> list[Plan]:
        """Drop (under the lock) the oldest idle plans beyond the bound."""
        held = sum(size for _, _, size in self._idle)
        drop = 0
        while held > self.bound:
            held -= self._idle[drop][2]
            drop += 1
        dropped, self._idle = self._idle[:drop], self._idle[drop:]
        return [plan for _, plan, _ in dropped]

    def stats(self) -> dict:
        """``cached`` (the idle plans) and the three checkout counts."""
        with self._lock:
            return {"cached": len(self._idle), **self._counts}

    def close(self) -> None:
        """Close every idle plan; the pool stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for _, plan, _ in idle:
            plan.close()

    def shut(self) -> None:
        """Close every idle plan and keep none hereafter (the owner is
        closing): a later check-in closes its plan and counts nothing."""
        with self._lock:
            self._shut = True
        self.close()


#: What :func:`factorize` may keep between calls, in :attr:`Plan.nbytes`:
#: room for a workload's plans on both planes, and a plan larger than
#: this runs and is closed exactly as before there was a pool.
_POOL_BYTES = 64 << 20
_PLANS = PlanPool(_POOL_BYTES, size=lambda plan: plan.nbytes)


def close_plans() -> None:
    """Close the plans :func:`factorize` kept, handing their memory
    (heap buffers, shared-memory arenas) back; the next call of a shape
    compiles again.  For tests and long-lived callers — at interpreter
    exit the arenas' own atexit hook unlinks them."""
    _PLANS.close()


def _resume(checkpoint, signature: dict, plan: Plan) -> set[str]:
    """Bind *checkpoint* to this computation and restore its newest
    boundary; returns the names of the tasks the run skips."""
    program = plan.program
    usable = checkpoint.prepare(signature)
    resumed_from, snaps = restore_matrix(plan.A, plan.layout, checkpoint) if usable else (-1, {})
    if resumed_from < 0:
        return set()
    # The restored matrix carries the *boundary* state: exactly the
    # tasks the snapshot covers are done.  Window K holds every task of
    # iteration K, so they are the windows through the resumed
    # boundary.  An epilogue window (CALU's left swaps) lies past every
    # boundary: snapshots are taken before it, so it always re-runs.
    checkpoint.restore_panels(snaps, plan.state)
    return {t.name for t in program.graph.tasks[: program.windows[resumed_from][1]]}


def factorize(
    alg: Algorithm,
    A: np.ndarray,
    *,
    b: int | None = None,
    tr: int,
    tree: TreeKind,
    executor=None,
    guards: bool = True,
    checkpoint=None,
    **build,
):
    """Run *alg* on *A*; returns ``alg.result(...)``.

    The keywords are those of :func:`repro.core.calu.calu`; *build*
    holds whatever else the algorithm's program builder takes
    (``lookahead``, and CALU's ``update_width``/``abft``).
    The steps: **validate** the knobs and the matrix; resolve the
    **executor** (``"auto"`` consults the autotuner with the problem's
    shape); **check out** the plan a previous call of this key left in
    the pool and :meth:`Plan.load` the matrix, or :func:`compile` one on
    the plane that executor's tasks reach (stage, build, emit the whole
    graph); **resume** from *checkpoint* (matrix and
    panel state restored to the newest boundary, the tasks that covers
    skipped); :meth:`Plan.run`; :meth:`Plan.result`,
    copied out of the plan's buffers; **flush** the checkpoint writer;
    **check in** the plan — closed instead when the run raised or it is
    larger than the pool.  A run bound to more than its matrix bypasses
    the pool and closes its plan as it returns: ``checkpoint=`` and an
    unhashable *build* value.
    """
    validate_knobs(tr=tr)
    A = validate_matrix(A, "A")
    m, n = A.shape
    if alg.panel:
        if m < n:
            raise ValueError(f"{alg.name.lower()} requires a tall panel (m >= n), got {A.shape}")
        b = n
    elif b is None:
        b = recommend_params(m, n, kind=alg.kind).b
    hints = {"kind": alg.kind, "m": m, "n": n, "b": b, "tr": tr, "tree": tree}
    executor, owned = resolve_executor(
        "threaded" if executor is None else executor, min(tr, 4), hints=hints
    )
    if isinstance(executor, SimulatedExecutor):
        raise ValueError(
            f"{alg.name.lower()} computes factors and a SimulatedExecutor only prices a graph: "
            "run a ThreadedExecutor or ProcessExecutor, or simulate the symbolic program "
            "(calu_program/caqr_program) instead"
        )
    # Tasks reach shared memory wherever the executor dispatches to a
    # worker pool: a ProcessExecutor, or an engine over a caller's pool.
    shared = getattr(executor, "pool", None) is not None
    decision = getattr(executor, "autotune_decision", None) if owned else None
    key = None
    if checkpoint is None:
        key = (alg, A.shape, working_dtype(A), b, tr, tree, shared, guards)
        key += tuple(sorted(build.items()))
        try:
            hash(key)
        except TypeError:
            key = None
    plan = _PLANS.checkout(key) if key is not None else None
    hit = plan is not None
    if not hit:
        plan = compile(
            alg,
            A,
            b=b,
            tr=tr,
            tree=tree,
            shared=shared,
            guards=guards,
            checkpoint=checkpoint,
            **build,
        )
    plan.decision = decision
    ok = False
    try:
        if hit:
            plan.load(A)
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
                **build,
                "a_digest": zlib.crc32(plan.A.tobytes()),
            }
            journal = _resume(checkpoint, signature, plan)
        trace = plan.run(executor, journal)
        ok = True
        # A plan that stays behind keeps its buffers: the result is a copy.
        kept = key is not None and _PLANS.fits(plan)
        result = plan.result(trace, np.array if kept else plan.store.detach)
        if checkpoint is not None:
            # Join the last snapshot write so a completed run leaves its
            # full chain on disk (and any write error surfaces here
            # rather than being dropped with the writer thread).
            checkpoint.flush()
        return result
    finally:
        if key is None:
            plan.close()
        else:
            _PLANS.checkin(key, plan, ok)
        if owned and shared:  # a pool made for this call (spawned at first run)
            executor.close()
