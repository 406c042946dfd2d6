"""repro — Communication-avoiding LU and QR factorizations for multicore.

Reproduction of S. Donfack, L. Grigori, A. K. Gupta, *Adapting
communication-avoiding LU and QR factorizations to multicore
architectures*, IPDPS 2010.

The package provides:

``repro.kernels``
    A from-scratch, flop-counted dense linear-algebra substrate (the
    role MKL/ACML/LAPACK play in the paper): BLAS-like primitives,
    unblocked/blocked/recursive LU and QR, compact-WY Householder
    kernels and the structured triangular-pentagonal kernels used by
    reduction trees and tiled algorithms.

``repro.core``
    The paper's contribution: TSLU (tournament pivoting), TSQR,
    multithreaded CALU (Algorithm 1) and CAQR (Algorithm 2), with
    binary / flat / hybrid reduction trees.  A repeated shape reuses
    its compiled plan; :func:`close_plans` hands the kept ones back.

``repro.runtime``
    Dynamic task graphs with look-ahead scheduling, executed either by
    real threads (:class:`~repro.runtime.threaded.ThreadedExecutor`)
    or in simulated time on a modelled multicore machine
    (:class:`~repro.runtime.simulated.SimulatedExecutor`).

``repro.machine``
    Analytic multicore performance models, including presets for the
    paper's two test machines (8-core Intel Xeon, 16-core AMD Opteron).

``repro.resilience``
    Fault injection (:class:`~repro.resilience.faults.FaultPlan`),
    task retry policies, structured runtime failures, numerical
    health guards, panel-granularity checkpoint/restart
    (:class:`~repro.resilience.checkpoint.Checkpoint`) and ABFT
    checksums for the trailing update — the runtime's recovery layer.

``repro.service``
    An overload-safe factorization service
    (:class:`~repro.service.service.FactorizationService`): concurrent
    ``factor``/``solve``/``lstsq`` requests multiplexed onto one shared
    worker pool with plan caching, bounded admission, per-request
    deadlines, circuit breaking and on-demand worker respawn.

``repro.baselines``
    The comparison algorithms the paper benchmarks against: BLAS2
    ``getf2``/``geqr2``, blocked ``getrf``/``geqrf`` (MKL/ACML-like)
    and PLASMA-style tiled LU (incremental pivoting) and tiled QR.

``repro.analysis``
    Numerical-quality metrics (backward error, growth factor,
    orthogonality), closed-form flop counts and schedule statistics.

``repro.bench``
    Workload generators and one driver per table/figure of the paper's
    evaluation section.
"""

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

# Public name -> defining module.  Resolved lazily so that subpackages
# (kernels, runtime, ...) stay importable in isolation and importing
# `repro` does not pay for the whole dependency graph.
_EXPORTS = {
    "CALUFactorization": "repro.core.calu",
    "calu": "repro.core.calu",
    "CAQRFactorization": "repro.core.caqr",
    "caqr": "repro.core.caqr",
    "tslu": "repro.core.tslu",
    "TSQRFactorization": "repro.core.tsqr",
    "tsqr": "repro.core.tsqr",
    "close_plans": "repro.core.driver",
    "TreeKind": "repro.core.trees",
    "Counters": "repro.counters",
    "counting": "repro.counters",
    "current_counters": "repro.counters",
    "MachineModel": "repro.machine.model",
    "amd16_acml": "repro.machine.presets",
    "generic": "repro.machine.presets",
    "intel8_mkl": "repro.machine.presets",
    "TaskGraph": "repro.runtime.graph",
    "SimulatedExecutor": "repro.runtime.simulated",
    "ProcessExecutor": "repro.runtime.process",
    "ThreadedExecutor": "repro.runtime.threaded",
    "WorkStealingExecutor": "repro.runtime.stealing",
    "calibrate_host": "repro.machine.calibrate",
    "FaultPlan": "repro.resilience.faults",
    "InjectedFault": "repro.resilience.faults",
    "RetryPolicy": "repro.resilience.recovery",
    "RuntimeFailure": "repro.resilience.recovery",
    "ResilienceEvent": "repro.resilience.events",
    "Checkpoint": "repro.resilience.checkpoint",
    "FileStore": "repro.resilience.checkpoint",
    "MemoryStore": "repro.resilience.checkpoint",
    "NumericalHealthWarning": "repro.resilience.health",
    "FactorizationService": "repro.service",
    "ServiceConfig": "repro.service",
    "AdmissionRejected": "repro.service",
    "DeadlineExceeded": "repro.service",
    "CircuitBreaker": "repro.service",
    "SolveReport": "repro.linalg",
    "solve": "repro.linalg",
    "lstsq": "repro.linalg",
    "iterative_refinement": "repro.linalg",
    "condest_1": "repro.linalg",
    "slogdet": "repro.linalg",
    "det": "repro.linalg",
}


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = sorted([*_EXPORTS, "__version__"])
