"""High-level solver API on top of the communication-avoiding factorizations.

Convenience routines a downstream user expects from an LU/QR library:
one-call solves, least squares, iterative refinement, 1-norm condition
estimation (Hager-Higham, as in LAPACK ``gecon``) and determinants —
all driven by the CALU/CAQR factorizations.

Resilience: :func:`solve` validates its inputs up front, monitors the
achieved residual, and auto-escalates to iterative refinement when the
first solve falls short of working accuracy — warning (and reporting
the achieved residual via :class:`SolveReport`) if refinement still
cannot reach it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.calu import CALUFactorization, calu
from repro.core.caqr import caqr
from repro.core.trees import TreeKind
from repro.machine.autotune import resolve_params
from repro.resilience.health import NumericalHealthWarning, validate_matrix, validate_rhs

__all__ = [
    "SolveReport",
    "solve",
    "monitored_solve",
    "lstsq",
    "iterative_refinement",
    "condest_1",
    "slogdet",
    "det",
]


@dataclass
class SolveReport:
    """What :func:`solve` achieved: residual, refinement steps, warnings.

    ``residual`` is the scaled backward-error residual
    ``||rhs - A x|| / (||A|| ||x|| + ||rhs||)``; ``converged`` says it
    met the requested tolerance.
    """

    residual: float = float("nan")
    tol: float = float("nan")
    refine_steps: int = 0
    converged: bool = True
    history: list[float] = field(default_factory=list)


def _scaled_residual(A: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """Backward-error style residual ``||r|| / (||A|| ||x|| + ||rhs||)``."""
    r = float(np.linalg.norm(rhs - A @ x))
    denom = float(np.linalg.norm(A, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(rhs))
    return r / denom if denom > 0 else r


def solve(
    A: np.ndarray,
    rhs: np.ndarray,
    b: int | None = None,
    tr: int | None = None,
    tree: TreeKind | None = None,
    refine: int = 0,
    cores: int = 4,
    auto_refine: bool = True,
    rtol: float | None = None,
    report: bool = False,
    checkpoint=None,
    executor=None,
    lookahead: int | None = None,
) -> np.ndarray:
    """Solve the square system ``A x = rhs`` with CALU.

    Unset parameters are filled from the paper's tuning heuristics
    (:func:`repro.machine.autotune.resolve_params`).  ``refine`` extra
    steps of iterative refinement sharpen the result to working
    accuracy (see :func:`iterative_refinement`).

    With ``auto_refine`` (the default) the scaled residual
    ``||rhs - A x|| / (||A|| ||x|| + ||rhs||)`` is checked against
    *rtol* (default ``sqrt(n) * 100 * eps``); a short-falling solve
    escalates to iterative refinement automatically, and a
    :class:`~repro.resilience.health.NumericalHealthWarning` reports
    the achieved residual if refinement still cannot reach it.  With
    ``report=True`` returns ``(x, SolveReport)``.  *checkpoint* (a
    :class:`~repro.resilience.checkpoint.Checkpoint`) is forwarded to
    :func:`~repro.core.calu.calu`, arming panel-granularity
    checkpoint/restart for the factorization.  *executor* and
    *lookahead* are likewise forwarded; *lookahead* ranks the task
    priorities (``None`` = the paper's 1).  Pass
    ``executor="process"`` (or a
    :class:`~repro.runtime.process.ProcessExecutor`) to run the
    kernels in a worker-process pool over a shared-memory arena —
    true multicore execution outside the GIL.  A request with a
    deadline, over a shared pool and cached plans, is
    :meth:`FactorizationService.solve
    <repro.service.service.FactorizationService.solve>`'s.
    """
    A = np.asarray(validate_matrix(A, "A"), dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"solve requires a square matrix, got shape {A.shape}")
    rhs = np.asarray(validate_rhs(rhs, A.shape[0], "rhs"), dtype=float)
    b, tr, tree = resolve_params(*A.shape, b, tr, tree, cores=cores, kind="lu")
    f = calu(A, b=b, tr=tr, tree=tree, checkpoint=checkpoint, executor=executor,
             lookahead=lookahead)
    return monitored_solve(
        A, f, rhs, refine=refine, auto_refine=auto_refine, rtol=rtol, report=report
    )


def monitored_solve(
    A: np.ndarray,
    f: CALUFactorization,
    rhs: np.ndarray,
    *,
    refine: int = 0,
    auto_refine: bool = True,
    rtol: float | None = None,
    report: bool = False,
):
    """Solve with factors *f* of *A*, watching the residual.

    The back half of :func:`solve` (whose parameters these are), shared
    with :meth:`FactorizationService.solve
    <repro.service.service.FactorizationService.solve>`: *refine* fixed
    refinement steps, then the scaled-residual check against *rtol*,
    auto-escalation to iterative refinement and the
    :class:`~repro.resilience.health.NumericalHealthWarning` when even
    that falls short.  Returns ``x``, or ``(x, SolveReport)`` with
    *report*.
    """
    x = f.solve(rhs)
    rep = SolveReport()
    if refine > 0:
        x, hist = iterative_refinement(A, f, rhs, max_iters=refine, x0=x)
        rep.refine_steps = len(hist) - 1
        rep.history = hist
    if auto_refine or report:
        n = A.shape[0]
        tol = rtol if rtol is not None else float(np.sqrt(n) * 100 * np.finfo(A.dtype).eps)
        rep.tol = tol
        rep.residual = _scaled_residual(A, x, rhs)
        if auto_refine and rep.residual > tol:
            scale = float(
                np.linalg.norm(A, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(rhs)
            )
            x, hist = iterative_refinement(
                A, f, rhs, max_iters=5, tol=tol * scale, x0=x
            )
            rep.refine_steps += len(hist) - 1
            rep.history.extend(hist)
            rep.residual = _scaled_residual(A, x, rhs)
        rep.converged = bool(rep.residual <= tol)
        if not rep.converged and auto_refine:
            warnings.warn(
                f"solve: residual {rep.residual:.3g} did not reach tolerance "
                f"{tol:.3g} after {rep.refine_steps} refinement steps "
                "(ill-conditioned system?)",
                NumericalHealthWarning,
                stacklevel=3,
            )
    return (x, rep) if report else x


def lstsq(
    A: np.ndarray,
    rhs: np.ndarray,
    b: int | None = None,
    tr: int | None = None,
    tree: TreeKind | None = None,
    cores: int = 4,
    executor=None,
    lookahead: int | None = None,
) -> np.ndarray:
    """Least-squares solution of ``min ||A x - rhs||_2`` with CAQR (``m >= n``).

    Unset parameters are filled from the paper's tuning heuristics.
    *executor*/*lookahead* are forwarded to :func:`~repro.core.caqr.caqr`
    (*lookahead* ranks the task priorities).  ``executor="process"`` runs the
    panel/update kernels in a worker-process pool over shared memory;
    the service's request is :meth:`FactorizationService.lstsq
    <repro.service.service.FactorizationService.lstsq>`.
    """
    A = np.asarray(validate_matrix(A, "A"), dtype=float)
    if A.shape[0] < A.shape[1]:
        raise ValueError(f"lstsq requires m >= n, got shape {A.shape}")
    rhs = np.asarray(validate_rhs(rhs, A.shape[0], "rhs"), dtype=float)
    b, tr, tree = resolve_params(*A.shape, b, tr, tree, cores=cores, kind="qr")
    f = caqr(A, b=b, tr=tr, tree=tree, executor=executor, lookahead=lookahead)
    return f.solve_ls(rhs)


def iterative_refinement(
    A: np.ndarray,
    f: CALUFactorization,
    rhs: np.ndarray,
    max_iters: int = 5,
    tol: float = 0.0,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Classic iterative refinement of ``A x = rhs`` using factors *f*.

    Returns ``(x, residual_norms)`` where ``residual_norms[k]`` is
    ``||rhs - A x_k||_2`` after step ``k`` (index 0 is the initial
    solve).  Stops early when the residual drops below *tol*.
    """
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    x = f.solve(rhs) if x0 is None else np.array(x0, dtype=float)
    history = [float(np.linalg.norm(rhs - A @ x))]
    for _ in range(max_iters):
        r = rhs - A @ x
        x = x + f.solve(r)
        history.append(float(np.linalg.norm(rhs - A @ x)))
        if history[-1] <= tol:
            break
    return x, history


def condest_1(f: CALUFactorization, anorm: float | None = None, a: np.ndarray | None = None) -> float:
    """Estimate the 1-norm condition number from a CALU factorization.

    Hager-Higham power iteration on ``||A^{-1}||_1`` (the same scheme
    LAPACK ``gecon`` uses), multiplied by ``||A||_1``.  Provide either
    *anorm* (precomputed ``||A||_1``) or the original matrix *a*.
    """
    n = f.lu.shape[0]
    if f.lu.shape[0] != f.lu.shape[1]:
        raise ValueError("condest_1 requires a square factorization")
    if anorm is None:
        if a is None:
            raise ValueError("provide anorm or the original matrix a")
        anorm = float(np.abs(np.asarray(a)).sum(axis=0).max())
    if anorm == 0.0:
        return float("inf")

    # Hager's algorithm: maximize ||A^{-1} x||_1 over ||x||_1 = 1.
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(5):
        y = f.solve(x)
        est_new = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = f.solve(xi, trans=True)
        j = int(np.argmax(np.abs(z)))
        if est_new <= est or np.abs(z[j]) <= float(z @ x):
            est = max(est, est_new)
            break
        est = est_new
        x = np.zeros(n)
        x[j] = 1.0
    # Alternative lower bound (LAPACK's safeguard vector).
    v = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1)) for i in range(n)])
    alt = 2.0 * float(np.abs(f.solve(v)).sum()) / (3.0 * n)
    est = max(est, alt)
    return est * anorm


def slogdet(f: CALUFactorization) -> tuple[float, float]:
    """Sign and log-absolute-value of ``det(A)`` from CALU factors."""
    m, n = f.lu.shape
    if m != n:
        raise ValueError("slogdet requires a square factorization")
    diag = np.diag(f.lu)
    if np.any(diag == 0.0):
        return 0.0, float("-inf")
    # Permutation parity: count transpositions in the swap sequence.
    swaps = int(np.sum(f.piv != np.arange(len(f.piv))))
    sign = (-1.0) ** swaps * float(np.prod(np.sign(diag)))
    return sign, float(np.sum(np.log(np.abs(diag))))


def det(f: CALUFactorization) -> float:
    """Determinant of ``A`` from CALU factors (may over/underflow; see
    :func:`slogdet` for the stable form)."""
    sign, logdet = slogdet(f)
    return sign * float(np.exp(logdet))
