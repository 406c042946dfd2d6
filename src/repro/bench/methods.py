"""Uniform method runners over the simulated machine.

Each method name maps to a task-graph builder; ``simulate_lu`` /
``simulate_qr`` build the (symbolic) graph for the requested problem
size, replay it on the machine model, and report GFLOP/s using the
*standard* operation counts — exactly how the paper normalizes: the
redundant flops of communication-avoiding algorithms cost time but do
not count as useful work.

LU methods: ``calu``, ``mkl_getrf``, ``acml_getrf``, ``mkl_getf2``,
``plasma_getrf``.
QR methods: ``caqr`` (which is TSQR when ``n <= b``), ``mkl_geqrf``,
``mkl_geqr2``, ``plasma_geqrf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.flops import lu_flops, qr_flops
from repro.baselines.lapack_lu import build_getf2_graph, getrf_program
from repro.baselines.lapack_qr import build_geqr2_graph, geqrf_program
from repro.baselines.tiled_lu import tiled_lu_program
from repro.baselines.tiled_qr import tiled_qr_program
from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.machine.autotune import recommend_params
from repro.machine.model import MachineModel
from repro.runtime.graph import TaskGraph
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.trace import Trace

__all__ = ["SimResult", "lu_graph", "qr_graph", "simulate_lu", "simulate_qr"]

# Vendor-library blocked algorithms use their own internal panel widths
# (MKL-era nb); fixed here, machine-independent.  QR uses a narrower
# panel than LU, as LAPACK-era dgeqrf did.
VENDOR_PANEL = 128
VENDOR_PANEL_QR = 96
PLASMA_NB = 200


@dataclass
class SimResult:
    """One simulated run: rate plus the trace/graph for inspection."""

    method: str
    m: int
    n: int
    gflops: float
    trace: Trace
    graph: TaskGraph


def lu_graph(
    method: str,
    m: int,
    n: int,
    *,
    b: int | None = None,
    tr: int = 8,
    tree: TreeKind = TreeKind.BINARY,
    lookahead: int = 1,
    nb: int = PLASMA_NB,
    row_chunks: int = 8,
    update_width: int | None = None,
) -> TaskGraph:
    """Build the (symbolic) LU task graph for *method*.

    ``calu_hybrid`` is the paper's closing conjecture: CALU's TSLU
    panel combined with vendor-quality (MKL-personality) trailing
    updates.  ``update_width`` activates the B > b extension of the
    paper's Section V for the ``calu*`` methods.
    """
    if method in ("calu", "calu_hybrid"):
        bb = b if b is not None else recommend_params(m, n).b
        program, _ = calu_program(
            BlockLayout(m, n, bb),
            tr,
            tree,
            lookahead=lookahead,
            update_width=update_width,
            update_library="mkl" if method == "calu_hybrid" else None,
        )
        return program.materialize()
    if method in ("mkl_getrf", "acml_getrf"):
        return getrf_program(
            m,
            n,
            b=min(VENDOR_PANEL, n),
            row_chunks=row_chunks,
            library=method.split("_")[0],
            lookahead=lookahead,
        ).materialize()
    if method == "mkl_getf2":
        return build_getf2_graph(m, n, library="mkl")
    if method == "plasma_getrf":
        return tiled_lu_program(m, n, nb=nb, library="plasma", lookahead=lookahead).materialize()
    raise ValueError(f"unknown LU method {method!r}")


def qr_graph(
    method: str,
    m: int,
    n: int,
    *,
    b: int | None = None,
    tr: int = 4,
    tree: TreeKind = TreeKind.FLAT,
    lookahead: int = 1,
    nb: int = PLASMA_NB,
) -> TaskGraph:
    """Build the (symbolic) QR task graph for *method*."""
    if method in ("caqr", "tsqr"):
        bb = b if b is not None else recommend_params(m, n).b
        if method == "tsqr":
            bb = n  # single panel: the pure TSQR of Figure 8
        program, _ = caqr_program(BlockLayout(m, n, bb), tr, tree, lookahead=lookahead)
        return program.materialize()
    if method in ("mkl_geqrf", "acml_geqrf"):
        return geqrf_program(
            m,
            n,
            b=min(VENDOR_PANEL_QR, n),
            library=method.split("_")[0],
            lookahead=lookahead,
        ).materialize()
    if method == "mkl_geqr2":
        return build_geqr2_graph(m, n, library="mkl")
    if method == "plasma_geqrf":
        return tiled_qr_program(m, n, nb=nb, library="plasma", lookahead=lookahead).materialize()
    raise ValueError(f"unknown QR method {method!r}")


def simulate_lu(method: str, m: int, n: int, machine: MachineModel, **kw) -> SimResult:
    """Simulate one LU factorization; GFLOP/s uses the standard count."""
    graph = lu_graph(method, m, n, **kw)
    trace = SimulatedExecutor(machine).run(graph)
    return SimResult(
        method=method,
        m=m,
        n=n,
        gflops=trace.gflops(lu_flops(m, n)),
        trace=trace,
        graph=graph,
    )


def simulate_qr(method: str, m: int, n: int, machine: MachineModel, **kw) -> SimResult:
    """Simulate one QR factorization; GFLOP/s uses the standard count."""
    graph = qr_graph(method, m, n, **kw)
    trace = SimulatedExecutor(machine).run(graph)
    return SimResult(
        method=method,
        m=m,
        n=n,
        gflops=trace.gflops(qr_flops(m, n)),
        trace=trace,
        graph=graph,
    )
