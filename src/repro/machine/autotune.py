"""Machine-model dispatch autotuning: the backend.

The calibrated :class:`~repro.machine.model.MachineModel` prices every
task's kernel time and per-task overhead, and the process backend's
dispatch cost is at most one pipe round-trip per shipped task — measurable
(:func:`calibrate_pipe` times ``noop`` descriptors through a live
worker pipe).  Given ``(kind, shape, b, Tr)`` this module predicts the
threaded and process makespans over the *symbolic* task graph (no
arithmetic executed) and picks the **backend**: process pays the spawn
of ``cores - 1`` workers plus one round-trip per task it ships to them
(the dispatcher runs the last lane itself) but scales with physical
cores; threaded pays only scheduler overhead but serializes kernel
dispatch on the GIL.  The unit of work is the paper's task, sized by
``b`` and ``Tr``.

Exposed as ``executor="auto"`` on the drivers (``calu``/``caqr``/
``tsqr``/``tslu``), through :func:`repro.runtime.process.resolve_executor`,
and as the ``FactorizationService`` backend; every decision is a
:class:`DispatchDecision` recorded into the run's trace (an
``"autotune"`` resilience event) so benchmarks can audit the choice.

The tuner's *prior* is the paper's own Section IV findings —
``b = min(100, n)``, ``Tr = cores`` for tall-skinny panels and a small
``Tr`` for large square matrices, the flat tree for QR and the binary
one for LU — as :func:`recommend_params`; :func:`resolve_params` fills
whatever a caller left unset from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.resilience.events import ResilienceEvent

if TYPE_CHECKING:
    from repro.core.trees import TreeKind

__all__ = [
    "DispatchDecision",
    "PipeCalibration",
    "TuneResult",
    "autotune",
    "calibrate_pipe",
    "measure_roundtrip",
    "clear_cache",
    "recommend_params",
    "resolve_params",
]

#: Fallback dispatch prices when worker processes cannot be spawned in
#: this environment (sandboxes without fork): conservative figures that
#: steer the decision toward the threaded backend.
_FALLBACK_ROUNDTRIP_S = 2e-4
_FALLBACK_SPAWN_S = 5e-2


@dataclass(frozen=True)
class TuneResult:
    """Recommended CALU/CAQR parameters for a problem shape."""

    b: int
    tr: int
    tree: TreeKind
    rationale: str


def recommend_params(m: int, n: int, cores: int = 8, kind: str = "lu") -> TuneResult:
    """Recommend ``(b, Tr, tree)`` for an ``m x n`` factorization.

    *kind* is ``"lu"`` or ``"qr"``.  The rules encode the paper's
    measured optima; they are starting points, not guarantees.
    """
    from repro.core.driver import algorithm

    if m < 1 or n < 1 or cores < 1:
        raise ValueError("m, n and cores must be positive")
    tree = algorithm(kind).tree
    b = min(100, n)
    aspect = m / n
    if aspect >= 8.0:
        # Tall and skinny: the panel dominates; throw every core at it.
        tr = cores
        rationale = (
            "tall-skinny: panel on the critical path, Tr = cores removes "
            "its idle time (paper Figures 3-4)"
        )
    elif max(m, n) >= 8000:
        # Large square-ish: updates dominate; small Tr avoids redundant
        # tournament work (paper Table I: Tr=2 best at 10^4).
        tr = min(2, cores)
        rationale = "large square: updates dominate, small Tr avoids redundant panel flops (Table I)"
    else:
        tr = max(1, min(cores, cores // 2 or 1))
        rationale = "moderate size: balance panel parallelism against task count (Tables I-III)"
    # Don't use more tournament leaves than full-height panel chunks exist.
    tr = max(1, min(tr, m // max(b, 1) or 1))
    return TuneResult(b=b, tr=tr, tree=tree, rationale=rationale)


def resolve_params(m: int, n: int, b=None, tr=None, tree=None, *, cores: int = 8, kind: str = "lu"):
    """``(b, tr, tree)`` with every unset one filled from :func:`recommend_params`."""
    rec = recommend_params(m, n, cores=cores, kind=kind)
    return (
        int(b if b is not None else rec.b),
        int(tr if tr is not None else rec.tr),
        tree if tree is not None else rec.tree,
    )


@dataclass(frozen=True)
class PipeCalibration:
    """Measured dispatch prices of the process backend.

    ``roundtrip_s`` is one descriptor send + ack through a live worker
    pipe; ``spawn_s`` is the cost of bringing one worker up (process
    start through first ack).  ``measured`` is False when spawning
    failed and the conservative fallback figures are in use.
    """

    roundtrip_s: float
    spawn_s: float
    measured: bool = True


@dataclass(frozen=True)
class DispatchDecision:
    """One autotuning verdict, with the inputs needed to audit it."""

    backend: str  # "threaded" | "process"
    n_workers: int
    kind: str
    shape: Optional[tuple]
    b: Optional[int]
    tr: Optional[int]
    predicted_s: dict  # backend -> predicted makespan (seconds)
    roundtrip_s: float
    reason: str

    @property
    def max_ops(self) -> int:
        return 1  # read by benchmarks/e2e/layers.py's machine.autotune.max_ops row

    def event(self) -> ResilienceEvent:
        """The trace record benchmarks and tests audit."""
        shape = f"{self.shape[0]}x{self.shape[1]}" if self.shape else "?"
        return ResilienceEvent(
            "autotune",
            detail=(
                f"backend={self.backend} "
                f"kind={self.kind} shape={shape} b={self.b} tr={self.tr} "
                f"roundtrip={self.roundtrip_s * 1e6:.1f}us "
                + " ".join(f"{k}={v:.3g}s" for k, v in sorted(self.predicted_s.items()))
                + f"; {self.reason}"
            ),
        )

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "kind": self.kind,
            "shape": list(self.shape) if self.shape else None,
            "b": self.b,
            "tr": self.tr,
            "predicted_s": dict(self.predicted_s),
            "roundtrip_s": self.roundtrip_s,
            "reason": self.reason,
        }


_pipe_cal: PipeCalibration | None = None
_decisions: dict = {}


def clear_cache() -> None:
    """Drop memoized calibrations and decisions (tests, re-calibration)."""
    global _pipe_cal
    _pipe_cal = None
    _decisions.clear()


def calibrate_pipe(samples: int = 64, *, refresh: bool = False) -> PipeCalibration:
    """Measure worker spawn and per-descriptor round-trip cost (cached).

    Spins up one real worker process and streams ``noop`` descriptors
    through its pipe — the exact path
    :meth:`~repro.runtime.process._WorkerPool.run` takes per task.
    Falls back to conservative constants when processes cannot start.
    """
    global _pipe_cal
    if _pipe_cal is not None and not refresh:
        return _pipe_cal
    from repro.runtime.process import _WorkerPool

    pool = None
    try:
        t0 = time.perf_counter()
        pool = _WorkerPool(1)
        pool.run(0, ("noop", {}))  # spawn + first ack
        spawn_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            pool.run(0, ("noop", {}))
        roundtrip_s = (time.perf_counter() - t0) / samples
        cal = PipeCalibration(roundtrip_s=roundtrip_s, spawn_s=spawn_s)
    except Exception:
        cal = PipeCalibration(
            roundtrip_s=_FALLBACK_ROUNDTRIP_S, spawn_s=_FALLBACK_SPAWN_S, measured=False
        )
    finally:
        if pool is not None:
            try:
                pool.close()
            except Exception:
                pass
    _pipe_cal = cal
    return cal


def measure_roundtrip(samples: int = 64, *, refresh: bool = False) -> float:
    """One descriptor dispatch through a live worker pipe, in seconds."""
    return calibrate_pipe(samples, refresh=refresh).roundtrip_s


def _symbolic_graph(kind: str, m: int, n: int, b: int, tr: int, tree):
    from repro.core.driver import algorithm
    from repro.core.layout import BlockLayout

    return algorithm(kind).program(BlockLayout(m, n, b), tr, tree)[0].materialize()


def autotune(
    kind: str = "lu",
    m: int | None = None,
    n: int | None = None,
    b: int | None = None,
    tr: int | None = None,
    tree=None,
    *,
    model=None,
    cores: int | None = None,
    pipe: PipeCalibration | None = None,
    persistent_pool: bool = False,
) -> DispatchDecision:
    """Pick the backend for one problem instance.

    With no shape the decision degrades to a safe default (threaded).
    *model* defaults to the ``generic`` preset sized to this host's
    cores — pass a :func:`~repro.machine.calibrate.calibrate_host`
    result for measured kernel rates.  *persistent_pool* drops the
    worker-spawn term (a service reusing one pool amortizes it away).
    Decisions are memoized per (kind, shape, b, tr, tree, pool mode)
    when model and pipe are defaulted.
    """
    from repro.core.trees import TreeKind
    from repro.runtime.process import default_process_workers

    if tree is None:
        tree = TreeKind.FLAT
    cacheable = model is None and pipe is None and cores is None
    key = (kind, m, n, b, tr, getattr(tree, "value", tree), persistent_pool)
    if cacheable and key in _decisions:
        return _decisions[key]

    if cores is None:
        cores = default_process_workers()
    if pipe is None:
        pipe = calibrate_pipe()
    if model is None:
        from repro.machine.presets import generic

        model = generic(cores)

    if m is None or n is None:
        decision = DispatchDecision(
            backend="threaded",
            n_workers=min(cores, 4),
            kind=kind,
            shape=None,
            b=b,
            tr=tr,
            predicted_s={},
            roundtrip_s=pipe.roundtrip_s,
            reason="no shape hints; defaulting to threaded",
        )
        if cacheable:
            _decisions[key] = decision
        return decision

    if b is None:
        b = recommend_params(m, n, cores, kind).b
    if tr is None:
        tr = 4
    graph = _symbolic_graph(kind, m, n, b, tr, tree)
    times = [model.seq_time(t.cost) for t in graph.tasks]
    work = sum(times)
    span = graph.critical_path(lambda t: model.seq_time(t.cost))[0]
    n_tasks = len(times)
    mean_task_s = work / max(1, n_tasks)

    # ProcessExecutor(cores) spawns cores - 1 workers and runs the last
    # lane in the dispatcher (one worker and no such lane at one core).
    procs = max(1, cores - 1)
    spawn_s = 0.0 if persistent_pool else pipe.spawn_s * procs
    # At most one pipe round-trip per task that leaves the dispatcher's
    # lane, about procs/cores of them: the per-worker message is the
    # only batching.
    shipped = n_tasks * procs / cores
    threads = max(1, min(cores, tr, 4))
    predicted = {
        "threaded": max(span, work / threads),
        "process": max(span, work / cores) + shipped * pipe.roundtrip_s + spawn_s,
    }
    backend = min(predicted, key=predicted.__getitem__)
    if backend == "threaded":
        reason = (
            f"threaded wins: {n_tasks} tasks, mean {mean_task_s * 1e6:.0f}us/task; "
            f"process would ship {shipped:.0f} of them (one round-trip each) "
            f"to {procs} worker(s) + {spawn_s:.3g}s spawn"
        )
    else:
        reason = (
            f"process wins: work {work:.3g}s over {cores} lanes ({procs} worker(s) "
            f"and the dispatcher) beats {threads}-thread dispatch and "
            f"{shipped:.0f} round-trips"
        )
    decision = DispatchDecision(
        backend=backend,
        n_workers=cores if backend == "process" else threads,
        kind=kind,
        shape=(m, n),
        b=b,
        tr=tr,
        predicted_s=predicted,
        roundtrip_s=pipe.roundtrip_s,
        reason=reason,
    )
    if cacheable:
        _decisions[key] = decision
    return decision
