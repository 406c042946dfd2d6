"""Numerical health guards and public-entry-point validation.

Two layers of defense:

* **Entry validation** — :func:`validate_matrix` gives the public API
  (``calu``, ``caqr``, ``tslu``, ``tsqr``, ``repro.linalg``) clear
  ``ValueError``\\ s for non-2D, empty or non-finite inputs instead of
  a NumPy traceback three layers deep.

* **In-flight guards** — cheap monitors attached to tasks via
  ``meta["health"]``.  Executors run the guard after the task's
  closure; the guard returns ``None`` (healthy) or a
  :class:`~repro.resilience.events.ResilienceEvent` (recorded in the
  trace; a ``fatal`` event aborts the run as a structured
  :class:`~repro.resilience.recovery.RuntimeFailure`).  The guards are
  O(block-size) finiteness sweeps and scalar pivot-growth checks.  Their
  fault-free cost is ``resilience.guard_overhead_frac`` of
  ``benchmarks/e2e/run.py`` (guards on vs off, one thread): up to ~13 %
  on its small workloads (``benchmarks/e2e/baseline/layers.json``).
"""

from __future__ import annotations

import numpy as np

from repro.resilience.events import ResilienceEvent

__all__ = [
    "NumericalHealthWarning",
    "DEFAULT_GROWTH_LIMIT",
    "validate_matrix",
    "validate_rhs",
    "finite_block_guard",
]


class NumericalHealthWarning(UserWarning):
    """A solver detected (and possibly repaired) degraded accuracy."""


#: Element-growth threshold beyond which the panel guard reports an
#: event.  GEPP growth is almost always far below this; pathological
#: (Wilkinson-type) matrices exceed it and deserve a trace entry.
DEFAULT_GROWTH_LIMIT = 1e8


def validate_matrix(A, name: str = "A") -> np.ndarray:
    """Validate a public-API matrix argument; returns ``np.asarray(A)``.

    Rejects non-2D inputs, empty matrices and non-finite entries with a
    clear :class:`ValueError` naming the argument.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(
            f"{name} must be a 2-D matrix, got a {A.ndim}-D array of shape {A.shape}"
        )
    if A.size == 0:
        raise ValueError(f"{name} is empty (shape {A.shape}); nothing to factor")
    if not np.issubdtype(A.dtype, np.number):
        raise ValueError(f"{name} must be numeric, got dtype {A.dtype}")
    if np.issubdtype(A.dtype, np.complexfloating):
        raise ValueError(f"{name} must be real, got dtype {A.dtype}")
    if not np.isfinite(A).all():
        bad = int(np.size(A) - np.count_nonzero(np.isfinite(A)))
        raise ValueError(f"{name} contains {bad} NaN or Inf entries")
    return A


def validate_rhs(rhs, n_rows: int, name: str = "rhs") -> np.ndarray:
    """Validate a right-hand side: 1-D or 2-D, matching rows, finite."""
    rhs = np.asarray(rhs)
    if rhs.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got a {rhs.ndim}-D array")
    if rhs.size == 0:
        raise ValueError(f"{name} is empty (shape {rhs.shape})")
    if rhs.shape[0] != n_rows:
        raise ValueError(
            f"{name} has {rhs.shape[0]} rows but the matrix has {n_rows}"
        )
    if not np.isfinite(rhs).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return rhs


def finite_block_guard(A: np.ndarray, r0: int, r1: int, j0: int, j1: int, task_name: str):
    """Guard closure: fatal event if ``A[r0:r1, j0:j1]`` is non-finite.

    Attached (as ``meta["health"]``) to trailing-update (S) tasks: a
    NaN/Inf produced — or injected — by an update is caught one task
    later at the latest, so a factorization can never *return* silently
    corrupted blocks.
    """

    def check() -> ResilienceEvent | None:
        block = A[r0:r1, j0:j1]
        if np.isfinite(block).all():
            return None
        return ResilienceEvent(
            "health",
            task=task_name,
            detail=(
                f"non-finite entries in block [{r0}:{r1}, {j0}:{j1}] "
                "after trailing update"
            ),
            fatal=True,
        )

    return check
