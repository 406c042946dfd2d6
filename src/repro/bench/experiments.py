"""One driver per table/figure of the paper's evaluation (Section IV).

Every driver returns a :class:`~repro.bench.tables.Table` (or, for the
execution diagrams, a :class:`GanttPair`) whose rows/columns mirror the
paper's artifact.  GFLOP/s numbers come from the simulated machine
models (see DESIGN.md for the substitution argument); the paper's
measured values are attached as notes so EXPERIMENTS.md can show
paper-vs-ours side by side.

Run ``python -m repro.bench <name>`` with one of
``fig1_fig2 fig3_fig4 fig5 fig6 fig7 fig8 table1 table2 table3``, the
ablations ``tree_ablation lookahead_ablation lookahead_depth_ablation
overhead_ablation stability scaling``, or the Section V extensions
``bb_extension hybrid_update``.  Add ``--save DIR`` and/or
``--report FILE``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.flops import lu_flops
from repro.bench.methods import lu_graph, simulate_lu, simulate_qr
from repro.bench.tables import Table
from repro.core.trees import TreeKind
from repro.machine.model import MachineModel
from repro.machine.presets import amd16_acml, intel8_mkl
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.trace import Trace

__all__ = [
    "DagFigure",
    "EXPERIMENTS",
    "GanttPair",
    "bb_extension",
    "fig1_fig2",
    "fig3_fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "hybrid_update",
    "lookahead_ablation",
    "lookahead_depth_ablation",
    "overhead_ablation",
    "run_all",
    "scaling",
    "stability",
    "table1",
    "table2",
    "table3",
    "tree_ablation",
]

TALL_NS = (10, 25, 50, 100, 150, 200, 500, 1000)


def _grid(
    sim,
    rows: list[tuple[str, int, int]],
    cols: list[tuple[str, str, dict]],
    machine: MachineModel,
) -> np.ndarray:
    out = np.zeros((len(rows), len(cols)))
    for i, (_, m, n) in enumerate(rows):
        for j, (_, method, kw) in enumerate(cols):
            out[i, j] = sim(method, m, n, machine, **kw).gflops
    return out


# ----------------------------------------------------------------------
# Figures 3 and 4 — execution diagrams
# ----------------------------------------------------------------------
@dataclass
class GanttPair:
    """The paper's Figures 3-4: CALU schedules at ``Tr=1`` vs ``Tr=8``."""

    trace_tr1: Trace
    trace_tr8: Trace
    idle_tr1: float
    idle_tr8: float
    gflops_tr1: float
    gflops_tr8: float

    def format(self) -> str:
        lines = [
            "Fig 3: CALU 1e5 x 1000, b=100, Tr=1 (8-core Intel model)",
            self.trace_tr1.gantt(100),
            f"idle fraction {100 * self.idle_tr1:.1f}%, {self.gflops_tr1:.1f} GFLOP/s",
            "",
            "Fig 4: same with Tr=8 — panel parallelized, idle removed",
            self.trace_tr8.gantt(100),
            f"idle fraction {100 * self.idle_tr8:.1f}%, {self.gflops_tr8:.1f} GFLOP/s",
            "",
            "Paper: with Tr=1 the panel (red, '#') leaves cores idle; with",
            "Tr=8 'except the very beginning and the very end ... there is",
            "no idle time and all the cores are kept busy'.",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()


def fig3_fig4(machine: MachineModel | None = None, m: int = 100_000, n: int = 1000) -> GanttPair:
    """CALU execution diagrams for a tall-skinny matrix, ``Tr=1`` vs ``Tr=8``."""
    mach = machine or intel8_mkl()
    flops = lu_flops(m, n)
    traces = []
    for tr in (1, 8):
        graph = lu_graph("calu", m, n, b=100, tr=tr)
        traces.append(SimulatedExecutor(mach).run(graph))
    t1, t8 = traces
    return GanttPair(
        trace_tr1=t1,
        trace_tr8=t8,
        idle_tr1=t1.idle_fraction(),
        idle_tr8=t8.idle_fraction(),
        gflops_tr1=t1.gflops(flops),
        gflops_tr8=t8.gflops(flops),
    )


# ----------------------------------------------------------------------
# Figures 5-7 — LU on tall-skinny matrices
# ----------------------------------------------------------------------
def _lu_tall(machine: MachineModel, m: int, ns=TALL_NS, tr_values=(4, 8)) -> Table:
    lib = "ACML" if machine.name.startswith("amd") else "MKL"
    cols = [(f"{lib}_dgetf2", "mkl_getf2", {})] if lib == "MKL" else []
    cols += [
        (f"{lib}_dgetrf", "mkl_getrf" if lib == "MKL" else "acml_getrf", {}),
        ("PLASMA_dgetrf", "plasma_getrf", {}),
    ]
    cols += [(f"CALU(Tr={t})", "calu", {"tr": t}) for t in tr_values]
    rows = [(str(n), m, n) for n in ns]
    values = _grid(simulate_lu, rows, cols, machine)
    return Table(
        title=f"LU GFLOP/s, m={m:.0e}, varying n ({machine.name} model)",
        row_header="n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        chart=True,
    )


def fig5(machine: MachineModel | None = None, ns=TALL_NS) -> Table:
    """Figure 5: CALU vs MKL dgetf2/dgetrf vs PLASMA, m=1e5, Intel 8-core."""
    t = _lu_tall(machine or intel8_mkl(), 100_000, ns)
    t.notes = [
        "Paper: CALU(Tr=8) best; 1.5-2x over MKL_dgetrf; beats PLASMA up to",
        "n<=300 (9.4x at n=10, 3.2x at n=200, 1.6x at 500, 1.1x at 1000).",
    ]
    return t


def fig6(machine: MachineModel | None = None, ns=TALL_NS) -> Table:
    """Figure 6: same as Fig 5 with m=1e6 (best CALU/dgetrf speedup 2.3x)."""
    t = _lu_tall(machine or intel8_mkl(), 1_000_000, ns)
    t.notes = [
        "Paper: speedup 2.3x vs MKL_dgetrf at n=500; 10x (Tr=8) and 8.3x",
        "(Tr=4) vs MKL_dgetf2 at n=100; 4x vs dgetf2 and 2x vs dgetrf at n=25;",
        "PLASMA overtakes CALU at n=1000.",
    ]
    return t


def fig7(machine: MachineModel | None = None, ns=TALL_NS) -> Table:
    """Figure 7: CALU vs ACML dgetrf vs PLASMA, m=1e5, AMD 16-core."""
    t = _lu_tall(machine or amd16_acml(), 100_000, ns, tr_values=(8, 16))
    t.notes = [
        "Paper: CALU(Tr=16) on average 5x faster than ACML_dgetrf and",
        "1.5x faster than PLASMA on this machine.",
    ]
    return t


# ----------------------------------------------------------------------
# Tables I and II — LU on square matrices
# ----------------------------------------------------------------------
def table1(machine: MachineModel | None = None, sizes=(1000, 2000, 3000, 4000, 5000, 10000)) -> Table:
    """Table I: LU GFLOP/s on square matrices, Intel 8-core, Tr in {1,2,4,8}."""
    mach = machine or intel8_mkl()
    cols = [("MKL_dgetrf", "mkl_getrf", {}), ("PLASMA_dgetrf", "plasma_getrf", {})]
    cols += [(f"CALU(Tr={t})", "calu", {"tr": t}) for t in (1, 2, 4, 8)]
    rows = [(str(n), n, n) for n in sizes]
    values = _grid(simulate_lu, rows, cols, mach)
    return Table(
        title=f"Table I: LU GFLOP/s, square matrices ({mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=[
            "Paper: MKL 38.4..61.4; PLASMA 17.8..48.3; CALU slower than MKL",
            "below 5000, CALU(Tr=2)=63.5 edges MKL=61.4 at 10000; CALU beats",
            "PLASMA for n > 3000.",
        ],
    )


def table2(machine: MachineModel | None = None, sizes=(1000, 2000, 3000, 4000, 5000)) -> Table:
    """Table II: LU GFLOP/s on square matrices, AMD 16-core, Tr in {1..16}."""
    mach = machine or amd16_acml()
    cols = [("ACML_dgetrf", "acml_getrf", {}), ("PLASMA_dgetrf", "plasma_getrf", {})]
    cols += [(f"CALU(Tr={t})", "calu", {"tr": t}) for t in (1, 2, 4, 8, 16)]
    rows = [(str(n), n, n) for n in sizes]
    values = _grid(simulate_lu, rows, cols, mach)
    return Table(
        title=f"Table II: LU GFLOP/s, square matrices ({mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=[
            "Paper: ACML wins for m=n<=2000, CALU wins for >=3000; CALU",
            "outperforms PLASMA at every size on this machine.",
        ],
    )


# ----------------------------------------------------------------------
# Figure 8 and Table III — QR
# ----------------------------------------------------------------------
def fig8(machine: MachineModel | None = None, ns=TALL_NS) -> Table:
    """Figure 8: TSQR/CAQR vs MKL dgeqr2/dgeqrf vs PLASMA, m=1e5, Intel."""
    mach = machine or intel8_mkl()
    m = 100_000
    cols = [
        ("MKL_dgeqr2", "mkl_geqr2", {}),
        ("MKL_dgeqrf", "mkl_geqrf", {}),
        ("PLASMA_dgeqrf", "plasma_geqrf", {}),
        ("TSQR(Tr=8)", "tsqr", {"tr": 8, "tree": TreeKind.BINARY}),
        ("CAQR(Tr=4)", "caqr", {"tr": 4, "tree": TreeKind.FLAT}),
    ]
    rows = [(str(n), m, n) for n in ns]
    values = _grid(simulate_qr, rows, cols, mach)
    return Table(
        title=f"Fig 8: QR GFLOP/s, m={m:.0e}, varying n ({mach.name} model)",
        row_header="n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        chart=True,
        notes=[
            "Paper: TSQR wins on tall-skinny — 5.3x vs MKL_dgeqrf and 3.6x vs",
            "PLASMA at n=200, 6.7x vs PLASMA at n=10; PLASMA overtakes TSQR at",
            "n=1000; CAQR ~1.6x over MKL_dgeqrf at n=500-1000 (20x vs dgeqr2).",
        ],
    )


def table3(machine: MachineModel | None = None, sizes=(1000, 2000, 3000, 4000, 5000)) -> Table:
    """Table III: QR GFLOP/s on square matrices, Intel 8-core, Tr in {1,2,4,8}."""
    mach = machine or intel8_mkl()
    cols = [("MKL_dgeqrf", "mkl_geqrf", {}), ("PLASMA_dgeqrf", "plasma_geqrf", {})]
    cols += [(f"CAQR(Tr={t})", "caqr", {"tr": t}) for t in (1, 2, 4, 8)]
    rows = [(str(n), n, n) for n in sizes]
    values = _grid(simulate_qr, rows, cols, mach)
    return Table(
        title=f"Table III: QR GFLOP/s, square matrices ({mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=["Paper: MKL more efficient than PLASMA, which beats CAQR."],
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md section 5)
# ----------------------------------------------------------------------
def tree_ablation(machine: MachineModel | None = None, m: int = 100_000, ns=(50, 100, 200, 500)) -> Table:
    """Reduction-tree shapes for TSQR: binary vs flat vs hybrid."""
    mach = machine or intel8_mkl()
    cols = [
        ("binary", "tsqr", {"tr": 8, "tree": TreeKind.BINARY}),
        ("flat", "tsqr", {"tr": 8, "tree": TreeKind.FLAT}),
        ("hybrid", "tsqr", {"tr": 8, "tree": TreeKind.HYBRID}),
    ]
    rows = [(str(n), m, n) for n in ns]
    values = _grid(simulate_qr, rows, cols, mach)
    return Table(
        title=f"TSQR reduction-tree ablation, m={m:.0e} ({mach.name} model)",
        row_header="n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=[
            "Paper finds the height-1 (flat) tree 'an efficient alternative' on",
            "shared memory; hybrid is the Hadri et al. shape the conclusion cites.",
        ],
    )


def lookahead_ablation(machine: MachineModel | None = None, sizes=(2000, 5000)) -> Table:
    """Scheduler look-ahead depth for square CALU: 0 vs 1 (paper) vs full."""
    mach = machine or intel8_mkl()
    cols = [
        ("lookahead=0", "calu", {"tr": 4, "lookahead": 0}),
        ("lookahead=1", "calu", {"tr": 4, "lookahead": 1}),
        ("lookahead=inf", "calu", {"tr": 4, "lookahead": -1}),
    ]
    rows = [(str(n), n, n) for n in sizes]
    values = _grid(simulate_lu, rows, cols, mach)
    return Table(
        title=f"CALU look-ahead ablation, square matrices ({mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=["The paper uses look-ahead of 1 to keep the panel off the idle path."],
    )


#: Interleaved rounds per depth in :func:`lookahead_depth_ablation`:
#: enough that one busy spell of the host cannot move a median.
DEPTH_ROUNDS = 7


def lookahead_depth_ablation(n: int = 256, b: int = 32, tr: int = 4, depths=(0, 1, 2)) -> Table:
    """Look-ahead depth ``d``: numeric runtime.

    Unlike :func:`lookahead_ablation` (static priorities on the
    simulated machine), this sweeps ``calu(lookahead=d)`` through real
    threaded CALU runs: the knob widens the priority boost window, a
    priority rule only, so the factors stay bitwise identical.  The
    depths are timed interleaved, one run each per round, and each
    reports its median over :data:`DEPTH_ROUNDS` rounds: a busy spell
    of the host then lands on every depth alike instead of on one
    depth's samples.
    """
    import time

    from repro.core.calu import calu

    A = np.random.default_rng(7).standard_normal((n, n))
    flops = lu_flops(n, n)
    cols = ["seconds", "GFLOP/s"]
    calu(A, b=b, tr=tr)  # warm caches and the thread machinery
    samples = np.zeros((DEPTH_ROUNDS, len(depths)))
    for r in range(DEPTH_ROUNDS):
        for i, d in enumerate(depths):
            t0 = time.perf_counter()
            calu(A, b=b, tr=tr, lookahead=d)
            samples[r, i] = time.perf_counter() - t0
    seconds = np.median(samples, axis=0)
    values = np.column_stack([seconds, flops / seconds / 1e9])
    return Table(
        title=f"CALU look-ahead depth, m=n={n}, b={b}, Tr={tr} (numeric, threaded)",
        row_header="depth",
        row_labels=[f"d={d}" for d in depths],
        col_labels=cols,
        values=values,
        notes=[
            "d widens the priority boost window; the factors stay bitwise identical.",
            f"seconds: median of {DEPTH_ROUNDS} rounds, the depths interleaved within each.",
        ],
    )


def overhead_ablation(machine: MachineModel | None = None, n: int = 2000, overheads=(0.0, 5.0, 20.0, 80.0, 320.0)) -> Table:
    """Scheduling-overhead sensitivity (the paper's 'too many tasks' caveat)."""
    base = machine or intel8_mkl()
    cols = [("CALU(Tr=4,b=50)", "calu", {"tr": 4, "b": 50}), ("CALU(Tr=4,b=100)", "calu", {"tr": 4, "b": 100}), ("CALU(Tr=4,b=200)", "calu", {"tr": 4, "b": 200})]
    rows = []
    values = np.zeros((len(overheads), len(cols)))
    for i, ov in enumerate(overheads):
        mach = intel8_mkl(task_overhead_us=ov) if base.name.startswith("intel") else base
        rows.append(f"{ov:.0f}us")
        for j, (_, method, kw) in enumerate(cols):
            values[i, j] = simulate_lu(method, n, n, mach, **kw).gflops
    return Table(
        title=f"CALU scheduling-overhead sensitivity, m=n={n} (intel8 model)",
        row_header="overhead",
        row_labels=rows,
        col_labels=[c[0] for c in cols],
        values=values,
        notes=[
            "Paper: 'for a too large number of tasks, the time spent in the",
            "scheduling can become significant' — smaller b means more tasks,",
            "so it degrades faster as the per-task overhead grows.",
        ],
    )


def stability(sizes=(128, 256, 512), trials: int = 3, seed: int = 0) -> Table:
    """Growth factors: CALU tournament pivoting vs GEPP vs incremental pivoting.

    Numeric (not simulated): validates the paper's stability claim for
    ca-pivoting against PLASMA-style incremental pivoting.
    """
    import scipy.linalg

    from repro.analysis.errors import growth_factor
    from repro.baselines.tiled_lu import tiled_lu
    from repro.core.calu import calu

    rng = np.random.default_rng(seed)
    rows = [str(s) for s in sizes]
    cols = ["GEPP", "CALU(Tr=8)", "tiled(nb=n/16)"]
    values = np.zeros((len(sizes), len(cols)))
    for i, nsz in enumerate(sizes):
        g = np.zeros(len(cols))
        for _ in range(trials):
            A = rng.standard_normal((nsz, nsz))
            _, _, U = scipy.linalg.lu(A)
            g[0] += growth_factor(A, U)
            f = calu(A, b=max(8, nsz // 8), tr=8)
            g[1] += growth_factor(A, f.U)
            t = tiled_lu(A, nb=max(8, nsz // 16))
            g[2] += growth_factor(A, t.U)
        values[i] = g / trials
    return Table(
        title="Element growth |U|max/|A|max (mean): ca-pivoting is GEPP-like,",
        row_header="n",
        row_labels=rows,
        col_labels=cols,
        values=values,
        notes=["incremental pivoting (PLASMA tiles) grows with the tile count."],
    )


@dataclass
class DagFigure:
    """The paper's Figures 1-2: the CALU task DAG and a step schedule."""

    dot: str
    steps: list[list[str]]
    kind_counts: dict[str, int]

    def format(self) -> str:
        lines = [
            "Fig 1: CALU task dependency graph, 4x4 blocks, Tr=2",
            f"tasks by kind: {self.kind_counts}",
            "(Graphviz source below; paper colours: P red, L yellow, U blue, S green)",
            "",
            self.dot,
            "",
            "Fig 2: step schedule on 4 threads (tasks executed concurrently per step)",
        ]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  step {i:2d}: " + "  ".join(step))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()


def fig1_fig2(b: int = 100, tr: int = 2, n_threads: int = 4) -> DagFigure:
    """Figures 1-2: the task DAG of CALU on a 4x4-block matrix and its
    4-thread step schedule (paper Section III)."""
    from repro.core.calu import calu_program
    from repro.core.layout import BlockLayout

    graph = calu_program(BlockLayout(4 * b, 4 * b, b), tr)[0].materialize()
    steps = [
        [graph.tasks[t].name for t in step] for step in graph.step_schedule(n_threads)
    ]
    return DagFigure(dot=graph.to_dot(), steps=steps, kind_counts=graph.count_by_kind())


def bb_extension(machine: MachineModel | None = None, sizes=(2000, 5000), b: int = 100) -> Table:
    """The paper's Section V extension: trailing-update block size B > b.

    Larger B reduces the task count (cheaper scheduling, bigger BLAS3
    updates) at the cost of look-ahead granularity.  The last row reruns
    the first size at 160 us per task, where scheduling is costly enough
    for coarser updates to pay off.
    """
    mach = machine or intel8_mkl()
    widths = (b, 2 * b, 4 * b, 8 * b)
    cols = [(f"B={w}", "calu", {"tr": 4, "b": b, "update_width": w}) for w in widths]
    rows = [(str(n), n, n) for n in sizes]
    costly = replace(mach, task_overhead_us=160.0)
    values = _grid(simulate_lu, rows, cols, mach)
    values = np.vstack([values, _grid(simulate_lu, rows[:1], cols, costly)])
    return Table(
        title=f"CALU with trailing-update width B (b={b}, {mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows] + [f"{sizes[0]}@160us"],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=[
            "Paper Section V: 'we can optimize trailing submatrix updating time",
            "by reducing the number of tasks and by better exploiting BLAS3'.",
        ],
    )


def hybrid_update(machine: MachineModel | None = None, sizes=(1000, 2000, 5000)) -> Table:
    """The paper's closing conjecture: TSLU panel + vendor-quality updates.

    'Combining a fast panel factorization as in CALU with a highly
    optimized update of the trailing matrix as in MKL_dgetrf can lead
    to a more efficient algorithm for square matrices.'
    """
    mach = machine or intel8_mkl()
    cols = [
        ("MKL_dgetrf", "mkl_getrf", {}),
        ("CALU(Tr=4)", "calu", {"tr": 4}),
        ("hybrid(Tr=4)", "calu_hybrid", {"tr": 4}),
    ]
    rows = [(str(n), n, n) for n in sizes]
    values = _grid(simulate_lu, rows, cols, mach)
    return Table(
        title=f"Hybrid CALU panel + MKL-quality updates ({mach.name} model)",
        row_header="m=n",
        row_labels=[r[0] for r in rows],
        col_labels=[c[0] for c in cols],
        values=values,
        notes=["The hybrid should dominate plain CALU and approach/beat MKL."],
    )


def scaling(machine: MachineModel | None = None, m: int = 100_000, n: int = 500, cores=(1, 2, 4, 8, 16)) -> Table:
    """Strong scaling on tall-skinny LU: CALU vs the fork-join vendor model.

    Not a paper artifact per se, but the mechanism behind Figures 5-7:
    the vendor library's serial panel bounds its scaling (Amdahl), while
    the tournament panel keeps scaling with the cores.
    """
    base = machine or intel8_mkl()
    cols = ["MKL_dgetrf", "CALU(Tr=cores)"]
    values = np.zeros((len(cores), 2))
    for i, c in enumerate(cores):
        mach = intel8_mkl(cores=c, name=f"intel{c}") if base.name.startswith("intel") else base
        values[i, 0] = simulate_lu("mkl_getrf", m, n, mach).gflops
        values[i, 1] = simulate_lu("calu", m, n, mach, tr=max(1, c)).gflops
    return Table(
        title=f"Strong scaling, LU of {m}x{n} (intel model, cores swept)",
        row_header="cores",
        row_labels=[str(c) for c in cores],
        col_labels=cols,
        values=values,
        chart=True,
        notes=["The serial vendor panel caps MKL's scaling; TSLU keeps scaling."],
    )


EXPERIMENTS = {
    "fig1_fig2": fig1_fig2,
    "fig3_fig4": fig3_fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "tree_ablation": tree_ablation,
    "lookahead_ablation": lookahead_ablation,
    "lookahead_depth_ablation": lookahead_depth_ablation,
    "overhead_ablation": overhead_ablation,
    "stability": stability,
    "bb_extension": bb_extension,
    "hybrid_update": hybrid_update,
    "scaling": scaling,
}


def run_all(names=None, echo=print) -> dict[str, object]:
    """Run the named experiments (default: all); returns their results."""
    out = {}
    for name in names or EXPERIMENTS:
        result = EXPERIMENTS[name]()
        out[name] = result
        echo(f"\n=== {name} ===")
        echo(result.format())
    return out
