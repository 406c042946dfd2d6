"""Resilient-runtime subsystem: fault injection, recovery, health guards.

The paper's dynamic scheduler assumes every task succeeds; this
subpackage is what makes the runtime survive the cases production
hardware actually produces:

``repro.resilience.faults``
    :class:`~repro.resilience.faults.FaultPlan` — deterministic,
    seeded injection of task exceptions, NaN corruption and stalls,
    consulted by the real-clock executors (the simulator only prices).

``repro.resilience.recovery``
    :class:`~repro.resilience.recovery.RetryPolicy` (bounded backoff
    retries for idempotent work) and
    :class:`~repro.resilience.recovery.RuntimeFailure` (structured
    failures carrying the partial trace).

``repro.resilience.health``
    NaN/Inf and pivot-growth guards attached to P/S tasks, plus the
    public-API input validators.

``repro.resilience.events``
    The :class:`~repro.resilience.events.ResilienceEvent` record type
    every mechanism reports through.

``repro.resilience.checkpoint``
    Panel-granularity checkpoint/restart: pluggable snapshot stores
    (:class:`~repro.resilience.checkpoint.MemoryStore`,
    :class:`~repro.resilience.checkpoint.FileStore`) and the
    :class:`~repro.resilience.checkpoint.Checkpoint` snapshot manager;
    a resume hands the executor the names of the tasks the restored
    boundary covers, to skip.

``repro.resilience.abft``
    Huang-Abraham checksums for the trailing update: single-element
    corruption is detected and repaired in place.
"""

from repro.resilience.abft import gemm_abft_guard, gemm_checksums, verify_and_correct
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    FileStore,
    MemoryStore,
    pack_arrays,
    restore_matrix,
    unpack_arrays,
)
from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.health import (
    DEFAULT_GROWTH_LIMIT,
    NumericalHealthWarning,
    finite_block_guard,
    validate_matrix,
    validate_rhs,
)
from repro.resilience.recovery import RetryPolicy, RuntimeFailure

__all__ = [
    "DEFAULT_GROWTH_LIMIT",
    "Checkpoint",
    "CheckpointStore",
    "FaultPlan",
    "FileStore",
    "InjectedFault",
    "MemoryStore",
    "NumericalHealthWarning",
    "ResilienceEvent",
    "RetryPolicy",
    "RuntimeFailure",
    "finite_block_guard",
    "gemm_abft_guard",
    "gemm_checksums",
    "pack_arrays",
    "restore_matrix",
    "unpack_arrays",
    "validate_matrix",
    "validate_rhs",
    "verify_and_correct",
]
