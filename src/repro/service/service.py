"""The factorization service: one pool, many requests, bounded failure.

:class:`FactorizationService` is the front-end the ROADMAP's north star
calls for: a long-lived, thread-safe object accepting concurrent
``factor``/``solve``/``lstsq`` requests and multiplexing them onto one
shared worker-process pool and shared-memory arena.  The driver's own
compiled plans (:func:`repro.core.driver.compile`) wait in the driver's
own pool class (:class:`repro.core.driver.PlanPool`) per ``(op, shape,
b, tr, tree, backend)`` so repeat shapes skip graph
construction entirely — the request loads its matrix into the plan's
buffer, runs the pre-built graph, and extracts the factors.

Every request leaves through exactly one of four doors:

* a correct result (bitwise-identical to a direct ``calu``/``caqr``
  call with the same parameters and backend);
* :class:`~repro.service.admission.AdmissionRejected` — shed before
  running (queue full, or the service is shutting down);
* :class:`~repro.service.admission.DeadlineExceeded` — the per-request
  deadline passed (while queued, or mid-run via the engine watchdog);
* :class:`~repro.resilience.recovery.RuntimeFailure` — the run failed
  structurally after bounded retries.

Never a hang, and never a silently wrong answer.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.core.calu import CALUFactorization
from repro.core.driver import ALGORITHMS, PlanPool, compile, validate_knobs
from repro.core.trees import TreeKind
from repro.linalg import monitored_solve
from repro.machine.autotune import resolve_params
from repro.resilience.health import validate_matrix, validate_rhs
from repro.resilience.recovery import RetryPolicy, RuntimeFailure
from repro.runtime.engine import ExecutionEngine
from repro.service.admission import AdmissionQueue, AdmissionRejected, DeadlineExceeded
from repro.service.breaker import CircuitBreaker
from repro.service.supervisor import RespawnGovernor

__all__ = ["FactorizationService", "ServiceConfig"]

#: Failure kinds worth a bounded request-level retry: transient
#: infrastructure trouble or injected/corruption faults.  A
#: ``task_error`` is assumed deterministic (the same matrix will fail
#: the same way), and ``deadline``/``admission`` are final by nature.
_RETRYABLE_KINDS = frozenset(
    {"worker_death", "timeout", "stall", "deadlock", "injected", "health"}
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`FactorizationService`.

    Parameters
    ----------
    cores:
        Lanes per request: engine threads, or (process backend) the
        pool's ``cores - 1`` worker processes plus the pool's one
        parent lane, which the requests' dispatchers take in turns.
    backend:
        ``"process"`` (worker pool + shared arena), ``"threaded"``
        (in-process engine only), or ``"auto"`` (process where ``fork``
        is available, else threaded).
    max_active, max_queue:
        Admission bounds: requests running concurrently, and requests
        queued behind them before load shedding kicks in.
    task_timeout_s, stall_timeout_s:
        Per-task and no-progress watchdog timeouts forwarded to every
        request's engine (None = disabled).
    max_attempts:
        Total request-level attempts (1 = no retry).  A retry loads
        a fresh plan (the failed attempt's is closed) and re-runs the
        whole graph, so it is safe whichever tasks had completed.
    seed:
        Seed for the request-level retry schedule (and, with
        ``task_retries``, the engine's task-level :class:`RetryPolicy`):
        a 5 ms exponential-backoff base for the request retries, and
        jitter of 0.5 on both.
    task_retries:
        Task-level retries inside each engine run.
    breaker_threshold, breaker_window_s, breaker_open_s:
        Circuit-breaker tuning (see
        :class:`~repro.service.breaker.CircuitBreaker`; one successful
        probe re-closes it).
    max_plans:
        Idle compiled plans kept for reuse; beyond it the least recently
        used is closed.  (Plans in use are bounded by ``max_active``.)
    max_respawns:
        Worker respawns allowed per second (see
        :class:`~repro.service.supervisor.RespawnGovernor`).
    fault_plan_factory:
        Testing hook: a zero-argument callable returning a
        :class:`~repro.resilience.faults.FaultPlan` (or None) for each
        engine run, letting chaos tests inject faults mid-request.
    """

    cores: int = 4
    backend: str = "auto"
    max_active: int = 2
    max_queue: int = 8
    task_timeout_s: float | None = None
    stall_timeout_s: float | None = None
    max_attempts: int = 2
    seed: int = 0
    task_retries: int = 2
    breaker_threshold: int = 3
    breaker_window_s: float = 30.0
    breaker_open_s: float = 1.0
    max_plans: int = 8
    max_respawns: int = 8
    fault_plan_factory: "Callable[[], object] | None" = None

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "process", "threaded"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_plans < 1:
            raise ValueError("max_plans must be >= 1")


class _Request(NamedTuple):
    """An admitted request: its id, its absolute ``time.monotonic()``
    deadline (None = unbounded) and the budget that was asked for."""

    rid: int
    deadline: float | None
    deadline_s: float


class FactorizationService:
    """Thread-safe factorization front-end over one shared worker pool.

    See the module docstring for the request contract and
    :class:`ServiceConfig` for the knobs.  Use as a context manager, or
    call :meth:`close` to drain: in-flight requests finish, queued ones
    are rejected, workers terminate and arena segments are unlinked.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = cfg = config if config is not None else ServiceConfig()
        backend = cfg.backend
        if backend == "auto":
            backend = (
                "process"
                if "fork" in multiprocessing.get_all_start_methods()
                else "threaded"
            )
        self.backend = backend
        self._admission = AdmissionQueue(cfg.max_active, cfg.max_queue)
        self._breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            window_s=cfg.breaker_window_s,
            open_s=cfg.breaker_open_s,
        )
        self._governor = RespawnGovernor(cfg.max_respawns)
        self._executor = None
        if backend == "process":
            from repro.runtime.process import ProcessExecutor

            self._executor = ProcessExecutor(n_workers=cfg.cores, respawn_governor=self._governor)
        # Task-level retries (inside one engine run) and request-level
        # retries (whole-graph re-run) share the backoff machinery.
        self._task_retry = RetryPolicy(max_retries=cfg.task_retries, jitter=0.5, seed=cfg.seed)
        self._request_retry = RetryPolicy(
            max_retries=max(cfg.max_attempts - 1, 0),
            backoff_s=0.005,
            jitter=0.5,
            seed=cfg.seed + 1,
            retry_all=True,
        )
        # Admission bounds the plans in use; the pool holds the idle ones.
        self._plans = PlanPool(cfg.max_plans)
        self._rid = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def factor(
        self,
        A: np.ndarray,
        *,
        b: int | None = None,
        tr: int | None = None,
        tree: TreeKind | None = None,
        deadline_s: float | None = None,
    ) -> CALUFactorization:
        """CALU-factor *A*; returns a detached :class:`CALUFactorization`."""
        A = np.asarray(validate_matrix(A, "A"), dtype=float)
        params = self._resolve(A.shape, b, tr, tree, kind="lu")
        return self._request(
            "lu", A, params, deadline_s, lambda plan, trace: plan.result(trace, np.array)
        )

    def solve(
        self,
        A: np.ndarray,
        rhs: np.ndarray,
        *,
        b: int | None = None,
        tr: int | None = None,
        tree: TreeKind | None = None,
        auto_refine: bool = True,
        rtol: float | None = None,
        report: bool = False,
        deadline_s: float | None = None,
    ):
        """Solve ``A x = rhs`` as :func:`repro.linalg.solve` does.

        Residual monitoring and auto-escalation to iterative refinement
        are the direct entry point's own
        (:func:`repro.linalg.monitored_solve`); with ``report=True``
        returns ``(x, SolveReport)``.
        """
        A = np.asarray(validate_matrix(A, "A"), dtype=float)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"solve requires a square matrix, got shape {A.shape}")
        rhs = np.asarray(validate_rhs(rhs, A.shape[0], "rhs"), dtype=float)
        params = self._resolve(A.shape, b, tr, tree, kind="lu")

        def extract(plan, trace):
            # The factorization views the plan's buffer directly — all
            # solves/refinement happen while the plan is held, and only
            # the solution leaves.
            return monitored_solve(
                A, plan.result(trace), rhs, auto_refine=auto_refine, rtol=rtol, report=report
            )

        return self._request("lu", A, params, deadline_s, extract)

    def lstsq(
        self,
        A: np.ndarray,
        rhs: np.ndarray,
        *,
        b: int | None = None,
        tr: int | None = None,
        tree: TreeKind | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Least squares ``min ||A x - rhs||_2`` via CAQR (``m >= n``)."""
        A = np.asarray(validate_matrix(A, "A"), dtype=float)
        if A.shape[0] < A.shape[1]:
            raise ValueError(f"lstsq requires m >= n, got shape {A.shape}")
        rhs = np.asarray(validate_rhs(rhs, A.shape[0], "rhs"), dtype=float)
        params = self._resolve(A.shape, b, tr, tree, kind="qr")

        return self._request(
            "qr", A, params, deadline_s, lambda plan, trace: plan.result(trace).solve_ls(rhs)
        )

    # ------------------------------------------------------------------
    # Request machinery
    # ------------------------------------------------------------------
    def _resolve(self, shape, b, tr, tree, kind: str):
        b, tr, tree = resolve_params(*shape, b, tr, tree, cores=self.config.cores, kind=kind)
        validate_knobs(tr=tr)
        return b, tr, tree

    def _request(self, op, A, params, deadline_s, extract):
        t0 = time.monotonic()
        deadline = None if deadline_s is None else t0 + float(deadline_s)
        self._admission.try_acquire(deadline, deadline_s or 0.0)
        req = _Request(next(self._rid), deadline, deadline_s or 0.0)
        try:
            return self._attempt_loop(op, A, params, req, extract)
        finally:
            self._admission.release(time.monotonic() - t0)

    def _attempt_loop(self, op, A, params, req, extract):
        cfg = self.config
        attempt = 0
        while True:
            self._check_deadline(req, "run")
            mode = self._breaker.acquire() if self._executor is not None else None
            use_process = self._executor is not None and mode in ("primary", "probe")
            try:
                result = self._run_once(op, A, params, req, use_process, extract)
            except BaseException as exc:
                # Every exit returns the verdict (a half-open probe holds
                # its slot until then); only a RuntimeFailure's kind says
                # anything about the pool, anything else (an arena that
                # cannot be allocated) is the caller's to see as it is.
                kind = exc.failure_kind if isinstance(exc, RuntimeFailure) else None
                if mode is not None:
                    self._breaker.record(mode, ok=False, kind=kind)
                if kind is None:
                    raise
                if kind == "deadline" and not isinstance(exc, DeadlineExceeded):
                    raise DeadlineExceeded(
                        f"deadline ({req.deadline_s:.3g}s) passed mid-run: {exc}",
                        deadline_s=req.deadline_s,
                        stage="run",
                    ) from exc
                attempt += 1
                if (
                    kind not in _RETRYABLE_KINDS
                    or attempt >= cfg.max_attempts
                    or self._closed
                ):
                    raise
                delay = self._request_retry.delay(attempt - 1, tid=req.rid)
                if req.deadline is not None and time.monotonic() + delay >= req.deadline:
                    raise  # no deadline budget left for another attempt
                time.sleep(delay)
                continue
            if mode is not None:
                self._breaker.record(mode, ok=True)
            # Strict deadline semantics: a result that arrives after the
            # deadline is a deadline miss, not a success — callers that
            # set deadlines want the bound, and the watchdog only polls
            # every ~20 ms, so fast runs can finish past a short one.
            self._check_deadline(req, "post-run")
            return result

    def _run_once(self, op, A, params, req, use_process, extract):
        cfg = self.config
        key, plan = self._plan_for(op, A.shape, params)
        ok = False
        try:
            plan.load(A)
            fault_plan = (
                cfg.fault_plan_factory() if cfg.fault_plan_factory is not None else None
            )
            engine = ExecutionEngine(
                n_workers=cfg.cores,
                retry=self._task_retry,
                fault_plan=fault_plan,
                task_timeout=cfg.task_timeout_s,
                stall_timeout=cfg.stall_timeout_s,
                deadline=req.deadline,
                thread_name=f"repro-svc-{req.rid}",
                process_pool=self._executor.pool if use_process else None,
            )
            trace = plan.run(engine)
            ok = True
            return extract(plan, trace)
        finally:
            # A run that raised may have left ops executing on a worker:
            # its plan is closed, never loaded for the next request.
            self._plans.checkin(key, plan, ok)

    def _check_deadline(self, req: _Request, stage: str) -> None:
        if req.deadline is not None and time.monotonic() >= req.deadline:
            raise DeadlineExceeded(
                f"deadline ({req.deadline_s:.3g}s) passed before the {stage} stage",
                deadline_s=req.deadline_s,
                stage=stage,
            )

    # ------------------------------------------------------------------
    # Plan pool
    # ------------------------------------------------------------------
    def _plan_for(self, op, shape, params):
        """``(key, plan)``, the plan held by this request alone: the pool's
        idle plan of the key, else the driver's plan for it — an empty
        buffer on the service's plane —
        compiled here, its graph the builder's task for task."""
        b, tr, tree = params
        key = (op, *shape, b, tr, tree.value, self.backend)
        plan = self._plans.checkout(key)
        if plan is None:
            shared = self.backend == "process"
            plan = compile(ALGORITHMS[op], shape, b=b, tr=tr, tree=tree, shared=shared)
        return key, plan

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    @property
    def breaker(self) -> CircuitBreaker:
        """The service's circuit breaker (read it; the service drives it)."""
        return self._breaker

    def stats(self) -> dict:
        """One snapshot of every subsystem's counters."""
        out = {
            "backend": self.backend,
            "admission": self._admission.snapshot(),
            "breaker": self._breaker.snapshot(),
            "respawn": self._governor.snapshot(),
            "plans": self._plans.stats(),
        }
        if self._executor is not None and self._executor._pool is not None:
            pool = self._executor._pool
            out["pool"] = {
                "liveness": pool.liveness(),
                "deaths": pool.deaths,
                "respawns": pool.respawns,
            }
        return out

    def close(self, timeout: float = 30.0) -> None:
        """Graceful drain (idempotent): finish in-flight, reject queued,
        terminate workers, unlink arena segments."""
        if self._closed:
            return
        self._closed = True
        self._admission.close()
        self._admission.wait_idle(timeout)
        if self._executor is not None:
            self._executor.close()
        self._plans.shut()  # a straggler's plan is closed as it comes back

    def __enter__(self) -> "FactorizationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(timeout=1.0)
        except Exception:
            pass
