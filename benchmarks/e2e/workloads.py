"""The benchmark's workloads: sizes, inputs, the four configurations and the output checks.

Everything here is driven through the package's public entry points
(``calu``/``caqr``/``solve``/``FactorizationService``); the program only
ever receives arrays generated from the harness's seed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from repro import (
    FactorizationService,
    ProcessExecutor,
    ServiceConfig,
    ThreadedExecutor,
    TreeKind,
    calu,
    caqr,
    solve,
)
from repro.analysis.flops import lu_flops, qr_flops

#: Workers per parallel backend and service clients (ISSUE 11 "Method").
W = 2
#: Timed ops per configuration per block; eight timed rounds give ``op_s.p75`` its n = 40.
REPS = 5
#: ``threaded``, whose readings are reported but not gated, has its block in every second timed
#: round (n = 20): at 2-3x the serial op it would otherwise take 40 % of the run.  The block
#: itself keeps its length -- a shorter one ends before the kernel has spread the two workers
#: over the cores and reads 2-3x faster than the steady state.
THREADED_EVERY = 2
#: Timed LAPACK ops at the head of every block (``timing.run_rounds``).
LAPACK_REPS = 3
#: No-progress watchdog: a hung op becomes a counted failure, not a hung benchmark.
STALL_S = 60.0

CONFIGS = ("serial", "threaded", "process", "lapack")


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.  ``smoke`` is the (m, n) the self-test uses."""

    name: str
    kind: str  # "lu" | "qr": the factorization underneath
    m: int
    n: int
    b: int
    tr: int
    tree: TreeKind
    smoke: tuple[int, int]
    solve: bool = False  # requests are solves through the service
    systems: int = 1  # distinct inputs visited round-robin

    def sized(self, smoke: bool) -> "Workload":
        return replace(self, m=self.smoke[0], n=self.smoke[1]) if smoke else self

    @property
    def tol(self) -> float:
        return 100.0 * max(self.m, self.n) * float(np.finfo(float).eps)

    @property
    def flops(self) -> float:
        """Closed-form useful flops of one op (the paper's GFLOP/s normalisation)."""
        if self.solve:
            return lu_flops(self.n, self.n) + 2.0 * self.n * self.n
        return lu_flops(self.m, self.n) if self.kind == "lu" else qr_flops(self.m, self.n)


# Sizes are the ISSUE's paper shapes scaled so that nine rounds of four
# configurations fit the driver's budget on a 2-core host, also while the
# host runs a third slower than at its best.  They were then
# re-sized against the traced shares (README "Workloads"), not the ISSUE's
# full-size expectations: the two tall workloads share one shape, and
# lu_square has 16 panels of 16-wide tiles so that the runtime, not the panel
# kernel, holds the largest share of its op.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lu_tall", "lu", 2560, 128, 32, 8, TreeKind.BINARY, smoke=(512, 64)),
        Workload("qr_tall", "qr", 2560, 128, 32, 8, TreeKind.FLAT, smoke=(512, 64)),
        Workload("lu_square", "lu", 256, 256, 16, 2, TreeKind.BINARY, smoke=(128, 128)),
        Workload(
            "svc_solve", "lu", 320, 320, 64, 2, TreeKind.BINARY, smoke=(128, 128),
            solve=True, systems=4,
        ),
    )
}


@dataclass
class Inputs:
    A: list[np.ndarray]
    rhs: list[np.ndarray]
    gram: list[np.ndarray]  # A^T A per system (QR check reference)
    r_abs: list[np.ndarray]  # |R| from LAPACK per system (QR check reference)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Gaussian inputs (and the QR check's references) from *seed* alone."""
    rng = np.random.default_rng(seed)
    A = [rng.standard_normal((w.m, w.n)) for _ in range(w.systems)]
    rhs = [rng.standard_normal(w.m) for _ in range(w.systems)]
    gram, r_abs = [], []
    if w.kind == "qr":
        gram = [a.T @ a for a in A]
        r_abs = [np.abs(scipy.linalg.qr(a, mode="r")[0][: w.n]) for a in A]
    return Inputs(A, rhs, gram, r_abs)


def factor(w: Workload, A: np.ndarray, executor, **kw):
    """The workload's factorization through the public driver."""
    driver = calu if w.kind == "lu" else caqr
    return driver(A, b=w.b, tr=w.tr, tree=w.tree, executor=executor, **kw)


def open_service(backend: str) -> FactorizationService:
    """The service as a user gets it, on ``W`` cores; a context manager."""
    return FactorizationService(ServiceConfig(cores=W, backend=backend, stall_timeout_s=STALL_S))


@dataclass
class Config:
    """One configuration of a workload: ``op(i)`` runs the i-th op and returns its output."""

    name: str
    op: Callable[[int], object]
    clients: int = 1
    block_ops: int = REPS
    every: int = 1  # its block runs in every n-th timed round (and in the settling round)


@contextlib.contextmanager
def open_configs(w: Workload, inp: Inputs, reps: int = REPS) -> Iterator[dict[str, Config]]:
    """The four configurations; pools and services live until the block exits."""
    serial = ThreadedExecutor(1, stall_timeout=STALL_S)
    threaded = ThreadedExecutor(W, stall_timeout=STALL_S)
    k = w.systems
    with contextlib.ExitStack() as stack:
        if w.solve:
            params = {"b": w.b, "tr": w.tr, "tree": w.tree}
            svc = {be: stack.enter_context(open_service(be)) for be in ("threaded", "process")}
            ops = {
                "serial": lambda i: solve(inp.A[i % k], inp.rhs[i % k], executor=serial, **params),
                "threaded": lambda i: svc["threaded"].solve(inp.A[i % k], inp.rhs[i % k], **params),
                "process": lambda i: svc["process"].solve(inp.A[i % k], inp.rhs[i % k], **params),
                "lapack": lambda i: scipy.linalg.solve(inp.A[i % k], inp.rhs[i % k]),
            }
            clients = {"threaded": W, "process": W}
        else:
            pool = stack.enter_context(ProcessExecutor(W, stall_timeout=STALL_S))
            lapack = (
                scipy.linalg.lu_factor
                if w.kind == "lu"
                else (lambda a: scipy.linalg.qr(a, mode="r")[0])
            )
            ops = {
                "serial": lambda i: factor(w, inp.A[i % k], serial),
                "threaded": lambda i: factor(w, inp.A[i % k], threaded),
                "process": lambda i: factor(w, inp.A[i % k], pool),
                "lapack": lambda i: lapack(inp.A[i % k]),
            }
            clients = {}
        yield {
            name: Config(name, ops[name], clients.get(name, 1),
                         LAPACK_REPS if name == "lapack" else reps * clients.get(name, 1),
                         THREADED_EVERY if name == "threaded" else 1)
            for name in CONFIGS
        }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class OutputError(Exception):
    """An op returned, but its output is not a factorization/solution of its input."""


def parts(w: Workload, res) -> dict[str, np.ndarray]:
    """The arrays of an op's output that the checks and the parity gate read."""
    if w.solve:
        return {"x": np.asarray(res)}
    if w.kind == "lu":
        lu, piv = res if isinstance(res, tuple) else (res.lu, res.piv)
        return {"lu": lu, "piv": piv}
    if isinstance(res, np.ndarray):
        return {"R": res[: w.n]}
    return {"R": res.R, "packed": res.packed}


def output_error(w: Workload, inp: Inputs, i: int, res) -> float:
    """Relative error of op *i*'s output against its input (ISSUE 11 "Output checks")."""
    A = inp.A[i % w.systems]
    p = parts(w, res)
    if w.solve:
        x, rhs = p["x"], inp.rhs[i % w.systems]
        denom = np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(rhs)
        return float(np.linalg.norm(A @ x - rhs) / denom)
    if w.kind == "lu":
        lu, r = p["lu"], min(A.shape)
        perm = np.arange(A.shape[0])
        for row, swap in enumerate(p["piv"]):
            perm[[row, swap]] = perm[[swap, row]]
        L = np.tril(lu[:, :r], -1)
        np.fill_diagonal(L, 1.0)
        return float(np.linalg.norm(A[perm] - L @ np.triu(lu[:r])) / np.linalg.norm(A))
    R, gram, r_abs = p["R"], inp.gram[i % w.systems], inp.r_abs[i % w.systems]
    return max(
        float(np.linalg.norm(gram - R.T @ R) / np.linalg.norm(gram)),
        float(np.linalg.norm(np.abs(R) - r_abs) / np.linalg.norm(r_abs)),
    )


def check(w: Workload, inp: Inputs, i: int, res) -> None:
    err = output_error(w, inp, i, res)
    if not err <= w.tol:  # also catches NaN
        raise OutputError(f"{w.name}: output error {err:.3g} exceeds {w.tol:.3g}")


def parity_ok(w: Workload, outputs: dict[str, object]) -> bool:
    """Bitwise-parity gate: the three repro backends must agree array for array."""
    ref = parts(w, outputs["serial"])
    return all(
        np.array_equal(ref[key], parts(w, outputs[be])[key])
        for be in ("threaded", "process")
        for key in ref
    )
