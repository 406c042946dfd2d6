"""``--trace``: the per-layer account, measured from outside the program.

Each function below times calls into one layer's public functions (the
module names under ``src/repro/``) or reads what the drivers already
return (``f.trace``, ``counting()``, ``svc.stats()``).  Nothing is
patched: the only instrumentation is an executor subclass that notes when
the driver entered and left ``executor.run``, the runtime layer's entry.
A value of ``None`` means the workload never exercises that metric.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import blas, lapack

from repro import (
    ProcessExecutor,
    SimulatedExecutor,
    ThreadedExecutor,
    calibrate_host,
    counting,
    solve,
)
from repro.analysis.communication import panel_messages_ca
from repro.analysis.errors import (
    growth_factor,
    lu_backward_error,
    orthogonality_error,
    qr_backward_error,
)
from repro.analysis.flops import (
    gemm_flops,
    larfb_flops,
    lu_panel_flops,
    qr_panel_flops,
    tpmqrt_flops,
    tpqrt_tt_flops,
    trsm_right_flops,
)
from repro.baselines.lapack_lu import getrf_lu
from repro.baselines.lapack_qr import geqrf_qr
from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.kernels.blas import gemm, laswp, trsm_runn
from repro.kernels.lu import rgetf2
from repro.kernels.qr import extract_v, geqr3, larfb_left_t
from repro.kernels.structured import tpmqrt_left_t, tpqrt
from repro.machine.autotune import autotune, calibrate_pipe
from repro.runtime.graph import TaskGraph
from repro.runtime.shm import SharedArena
from repro.runtime.task import Cost, TaskKind

from timing import Tally, closed_loop, percentile, verify
from workloads import STALL_S, W, Inputs, Workload, check, factor, open_service

perf = time.perf_counter
BACKENDS = ("serial", "threaded", "process")
KINDS = ("P", "L", "U", "S", "X")


def p50(values) -> float:
    return float(statistics.median(values))


def timed(fn: Callable[[], object], n: int) -> list[float]:
    """Wall seconds of *n* calls, gc collected between and off during each."""
    out = []
    for _ in range(n):
        gc.collect()
        gc.disable()
        try:
            t0 = perf()
            fn()
            out.append(perf() - t0)
        finally:
            gc.enable()
    return out


def alternated(a: Callable[[], object], b: Callable[[], object], n: int) -> tuple[float, float]:
    """Median seconds of *a* and of *b* over *n* calls each, alternated so drift biases neither."""
    ta, tb = [], []
    for _ in range(n):
        ta += timed(a, 1)
        tb += timed(b, 1)
    return p50(ta), p50(tb)


def program(w: Workload, A: np.ndarray | None = None):
    """The workload's streaming graph program: numeric over *A*, symbolic without."""
    program_of = calu_program if w.kind == "lu" else caqr_program
    return program_of(BlockLayout(w.m, w.n, w.b), w.tr, w.tree, A=A)[0]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: one root per op, harness-timed layer calls and the
    returned TaskRecords as children.  Written once, at the end of the run."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int:
        self.rows.append(
            {"id": len(self.rows), "name": name, "start": start, "end": end, "parent": parent, **attrs}
        )
        return len(self.rows) - 1

    def self_times(self) -> dict[int, float]:
        """Per span: its duration minus the part of it that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append((row["start"], row["end"]))
        out = {}
        for row in self.rows:
            covered, edge = 0.0, row["start"]
            for start, end in sorted(children.get(row["id"], ())):
                start, end = max(start, edge), min(end, row["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out[row["id"]] = (row["end"] - row["start"]) - covered
        return out

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for row in self.rows:
                fh.write(json.dumps({**row, "self_s": selfs[row["id"]]}) + "\n")


class _NotesRun:
    """Executor mixin: remember when the driver entered and left ``run``."""

    last_run = (0.0, 0.0)

    def run(self, graph, journal=None):
        t0 = perf()
        try:
            return super().run(graph, journal=journal)
        finally:
            self.last_run = (t0, perf())


class TracedThreaded(_NotesRun, ThreadedExecutor):
    pass


class TracedProcess(_NotesRun, ProcessExecutor):
    pass


def traced_op(w: Workload, A: np.ndarray, ex, spans: Spans, label: str, op_id: int):
    """One factorization with its span tree; returns ``(factorization, account)``.

    Task records carry engine-relative times; the engine starts its clock on
    entering ``run``, just before it emits the first windows, so records are
    placed at the start of the ``run`` span.  ``outside_s`` is everything
    before the first task starts and after ``run`` returns: validation,
    staging, the first windows' emission, worker start, copy-out.  What then
    remains of the op wall beside ``makespan_s`` -- the engine's tear-down and
    the offset between the two clocks -- is the account's gap.
    """
    t0 = perf()
    f = factor(w, A, ex)
    t1 = perf()
    r0, r1 = ex.last_run
    trace = f.trace
    root = spans.add(f"op.{label}", t0, t1, op=op_id)
    run = spans.add("runtime.run", r0, r1, parent=root, op=op_id)
    for rec in trace.records:
        spans.add(rec.name, r0 + rec.start, r0 + rec.end, parent=run, op=op_id,
                  kind=rec.kind.value, core=rec.core)
    busy = trace.busy_by_kind()
    wall, makespan = t1 - t0, trace.makespan
    outside = wall - (r1 - r0) + min(rec.start for rec in trace.records)
    return f, {
        "wall": wall,
        "outside_s": outside,
        "makespan_s": makespan,
        "emit_s": trace.stats["emit_seconds"],
        "idle_s": trace.n_cores * makespan - sum(busy.values()),
        "busy": busy,
        "account_gap": abs(wall - (outside + makespan)) / wall,
        "n_tasks": trace.stats["n_tasks"],
        "peak_live_tasks": trace.stats["peak_live_tasks"],
        "events": len(trace.events),
        "degraded": len(getattr(f, "degraded_panels", ())),
    }


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
def _noop() -> None:
    pass


def dispatch_us(ex) -> float:
    """Per-task cost of a 512-task dependency-free graph of ``noop`` ops (graph built untimed)."""
    def graph() -> TaskGraph:
        g = TaskGraph("noop512")
        for i in range(512):
            g.add(f"noop{i}", TaskKind.X, Cost("noop"), fn=_noop, op=("noop", {}))
        return g

    graphs = [graph() for _ in range(4)]
    ex.run(graphs.pop())
    return p50(timed(lambda: ex.run(graphs.pop()), 3)) / 512 * 1e6


def stage(A: np.ndarray) -> None:
    """What the process backend does around every run: arena in, arena out."""
    arena = SharedArena()
    try:
        shared = arena.alloc(A.shape, A.dtype, zero=False)
        np.copyto(shared, A)
        np.array(shared)
    finally:
        arena.destroy()


def runtime_layer(w: Workload, A: np.ndarray, spans: Spans, checker, tally: Tally,
                  rounds: int = 2, n: int = 4) -> tuple[dict, dict]:
    """Blocks of traced ops per backend, after one settling round (``timing.run_rounds``);
    the account of the median-wall op is reported whole, so that its parts add up exactly."""
    m: dict = {}
    accounts: dict[str, list[dict]] = {be: [] for be in BACKENDS}
    cold = []
    with TracedProcess(W, stall_timeout=STALL_S) as pool:
        exs = {"serial": TracedThreaded(1, stall_timeout=STALL_S),
               "threaded": TracedThreaded(W, stall_timeout=STALL_S), "process": pool}
        op_id = 0
        f = None
        for r in range(rounds + 1):
            for be, ex in exs.items():  # process follows threaded, as in the timed rounds
                for k in range(n + 1):
                    gc.collect()
                    f, acc = traced_op(w, A, ex, spans, be, op_id)
                    tally.add(be, verify(checker, 0, f, None))
                    op_id += 1
                    if r and k:
                        accounts[be].append(acc)
                    elif r and be == "process":
                        cold.append(acc["wall"])
        for be in ("threaded", "process"):
            m[f"runtime.{be}.dispatch_us"] = dispatch_us(exs[be])
        with counting() as c:
            factor(w, A, pool)
        m["runtime.process.roundtrips"] = c.roundtrips
        m["counters.syncs.process"] = c.syncs
        m["counters.words.process"] = c.words
    rep = {be: sorted(accs, key=lambda a: a["wall"])[len(accs) // 2] for be, accs in accounts.items()}
    for be, acc in rep.items():
        for key in ("makespan_s", "outside_s", "emit_s", "idle_s"):
            m[f"runtime.{be}.{key}"] = acc[key]
        for kind in KINDS:
            m[f"runtime.{be}.busy_s.{kind}"] = acc["busy"].get(kind, 0.0)
    for be in ("threaded", "process"):
        m[f"runtime.{be}.busy_inflation"] = (
            sum(rep[be]["busy"].values()) / sum(rep["serial"]["busy"].values())
        )
    m["runtime.n_tasks"] = rep["serial"]["n_tasks"]
    m["runtime.peak_live_tasks"] = rep["threaded"]["peak_live_tasks"]
    m["runtime.process.stage_s"] = p50(timed(lambda: stage(A), 5))
    m["runtime.process.cold_op_s"] = p50(cold)
    m["resilience.events"] = sum(a["events"] for accs in accounts.values() for a in accs)
    m["resilience.degraded_panels"] = sum(a["degraded"] for accs in accounts.values() for a in accs)
    m["trace.account_gap_frac"] = max(acc["account_gap"] for acc in rep.values())
    walls = {be: p50(a["wall"] for a in accs) for be, accs in accounts.items()}
    return m, {"walls": walls, "rep": rep, "factorization": f}


def _rate(fn: Callable[[object], object], setup: Callable[[], object], work: float) -> float:
    """``work`` per second of ``fn(setup())``, set-up untimed: median of >= 3 calls over >= 20 ms."""
    times: list[float] = []
    while len(times) < 3 or sum(times) < 0.02:
        arg = setup()
        t0 = perf()
        fn(arg)
        times.append(perf() - t0)
    return work / p50(times)


def kernels_layer(w: Workload, A: np.ndarray) -> dict:
    """Each repro kernel on the tile shapes this workload issues, beside the LAPACK/BLAS
    routine of the same name on the same tile (Fortran-ordered and overwritten in place,
    so that neither side pays a copy the other does not)."""
    rows, b = max(w.m // w.tr, w.b), w.b
    rng = np.random.default_rng(0)
    tile = np.array(A[:rows, :b])
    C = rng.standard_normal((rows, b))
    sq = rng.standard_normal((b, b))
    tri = np.triu(rng.standard_normal((b, b))) + b * np.eye(b)
    tri2 = np.triu(rng.standard_normal((b, b))) + b * np.eye(b)
    F = np.asfortranarray
    tile_f, C_f, sq_f, tri_f, tri2_f = F(tile), F(C), F(sq), F(tri), F(tri2)
    m: dict = dict.fromkeys(
        [f"kernels.{k}.{v}" for k in ("rgetf2", "geqr3", "tpqrt", "trsm", "gemm", "larfb", "tpmqrt")
         for v in ("gflops", "vs_lapack")] + ["kernels.laswp.gbps"]
    )

    def pair(name: str, flops: float, ours, ours_arg, theirs, theirs_arg) -> None:
        rate = _rate(ours, ours_arg, flops)
        m[f"kernels.{name}.gflops"] = rate / 1e9
        m[f"kernels.{name}.vs_lapack"] = rate / _rate(theirs, theirs_arg, flops)

    if w.kind == "lu":
        pair("rgetf2", lu_panel_flops(rows, b), rgetf2, tile.copy,
             lambda X: lapack.dgetrf(X, overwrite_a=1), tile_f.copy)
        pair("trsm", trsm_right_flops(rows, b), lambda X: trsm_runn(tri, X), C.copy,
             lambda X: blas.dtrsm(1.0, tri_f, X, side=1, lower=0, overwrite_b=1), C_f.copy)
        pair("gemm", gemm_flops(rows, b, b), lambda X: gemm(X, C, sq), C.copy,
             lambda X: blas.dgemm(-1.0, C_f, sq_f, beta=1.0, c=X, overwrite_c=1), C_f.copy)
        piv = rng.integers(0, rows, size=b)
        moved = 4 * 8 * b * b  # computed, not measured: b swaps x 2 rows x b columns, read + write
        m["kernels.laswp.gbps"] = _rate(lambda X: laswp(X, piv), C.copy, moved) / 1e9
        return m
    pair("geqr3", qr_panel_flops(rows, b), geqr3, tile.copy,
         lambda X: lapack.dgeqrt(b, X, overwrite_a=1), tile_f.copy)
    pair("tpqrt", tpqrt_tt_flops(b),
         lambda X: tpqrt(X[0], X[1], bottom_triangular=True), lambda: (tri.copy(), tri2.copy()),
         lambda X: lapack.dtpqrt(b, b, X[0], X[1], overwrite_a=1, overwrite_b=1),
         lambda: (tri_f.copy(), tri2_f.copy()))
    packed = tile.copy()
    T = geqr3(packed)
    V = extract_v(packed)
    v_f, t_f, _ = lapack.dgeqrt(b, tile_f)
    pair("larfb", larfb_flops(rows, b, b), lambda X: larfb_left_t(V, T, X), C.copy,
         lambda X: lapack.dgemqrt(v_f, t_f, X, side="L", trans="T", overwrite_c=1), C_f.copy)
    top, bot = tri.copy(), tri2.copy()
    T2 = tpqrt(top, bot, bottom_triangular=True)
    Vb = np.triu(bot)
    _, vb_f, t2_f, _ = lapack.dtpqrt(b, b, tri_f, tri2_f)
    pair("tpmqrt", tpmqrt_flops(b, b, b),
         lambda X: tpmqrt_left_t(Vb, T2, X[0], X[1]), lambda: (sq.copy(), sq.copy()),
         lambda X: lapack.dtpmqrt(b, vb_f, t2_f, X[0], X[1], side="L", trans="T",
                                  overwrite_a=1, overwrite_b=1),
         lambda: (sq_f.copy(), sq_f.copy()))
    return m


def core_layer(w: Workload, A: np.ndarray) -> dict:
    """Graph emission alone: the numeric program materialized, never executed."""
    graphs = []

    def emit() -> None:
        graphs.append(program(w, A.copy()).materialize())

    emit_s = p50(timed(emit, 5))
    counts = graphs[-1].count_by_kind()
    out = {"core.emit_s": emit_s, "core.emit_us_per_task": emit_s / len(graphs[-1]) * 1e6}
    for kind in "PLUS":
        out[f"core.{kind.lower()}_tasks"] = counts.get(kind, 0)
    return out


def counters_layer(w: Workload, A: np.ndarray) -> dict:
    with counting() as serial:
        factor(w, A, ThreadedExecutor(1))
    with counting() as threaded:
        factor(w, A, ThreadedExecutor(W))
    return {
        "counters.flops": serial.flops,
        "counters.flops_vs_closed_form": serial.flops / w.flops,
        "counters.syncs.threaded": threaded.syncs,
        "counters.kernel_calls": sum(serial.kernel_calls.values()),
    }


def analysis_layer(w: Workload, A: np.ndarray, f, syncs: int) -> dict:
    n_panels = BlockLayout(w.m, w.n, w.b).n_panels
    out = {
        "analysis.orth_err": None,
        "analysis.growth": None,
        "analysis.syncs_vs_model": syncs / n_panels / panel_messages_ca(w.tr, w.tree),
    }
    if w.kind == "lu":
        out["analysis.backward_err"] = lu_backward_error(A, f.perm, f.L, f.U)
        out["analysis.growth"] = growth_factor(A, f.U)
    else:
        Q = f.q_explicit()
        out["analysis.backward_err"] = qr_backward_error(A, Q, f.R)
        out["analysis.orth_err"] = orthogonality_error(Q)
    return out


def machine_layer(w: Workload, A: np.ndarray, walls: dict, process_makespan: float):
    """Calibration cost, the model's makespan against the measured one, and the autotuner's
    choice against the best fixed backend.  Returns ``(metrics, controls)``."""
    t0 = perf()
    model = calibrate_host(cores=W)
    calibrate_s = perf() - t0
    simulated = SimulatedExecutor(model).run(program(w)).makespan
    pipe = calibrate_pipe(refresh=True)
    decision = autotune(w.kind, w.m, w.n, b=w.b, tr=w.tr, tree=w.tree)
    auto = p50(timed(lambda: factor(w, A, "auto"), 8))
    ratio = simulated / process_makespan  # < 1: the model is optimistic
    return {
        "machine.calibrate_s": calibrate_s,
        "machine.model_residual": abs(ratio - 1.0),
        "machine.pipe_roundtrip_us": pipe.roundtrip_s * 1e6,
        "machine.pipe_spawn_s": pipe.spawn_s,
        "machine.autotune.backend": int(decision.backend == "process"),
        "machine.autotune.max_ops": decision.max_ops,
        "machine.autotune.regret": auto / min(walls["threaded"], walls["process"]),
    }, {"machine.model_ratio": ratio, "machine.autotune.decision": decision.to_dict()}


def baselines_layer(w: Workload, A: np.ndarray, serial_wall: float) -> dict:
    """The paper's own comparison: the CA algorithm against the blocked one on the same kernels."""
    blocked = getrf_lu if w.kind == "lu" else geqrf_qr
    blocked_s = p50(timed(lambda: blocked(A, b=w.b), 3))
    return {"baselines.blocked_s": blocked_s, "baselines.blocked_ratio": serial_wall / blocked_s}


LINALG = ("linalg.solve_s.p50", "linalg.factor_share", "linalg.refine_iters")
SERVICE = (
    *(f"service.{be}.{key}" for be in ("threaded", "process") for key in ("request_s.p95", "ops_per_s")),
    "service.overhead_s", "service.plan_hit_ratio", "service.plan_builds", "service.shed",
    "service.retries", "service.breaker_transitions", "service.respawns", "service.ema_service_s",
)


def linalg_layer(w: Workload, inp: Inputs) -> dict:
    """Direct ``repro.linalg.solve``, serial, and the share of it that is the factorization."""
    A, rhs = inp.A[0], inp.rhs[0]
    serial = ThreadedExecutor(1)
    reports = []

    def call() -> None:
        reports.append(solve(A, rhs, b=w.b, tr=w.tr, tree=w.tree, executor=serial, report=True)[1])

    total, inner = alternated(call, lambda: factor(w, A, serial), 12)
    return {
        "linalg.solve_s.p50": total,
        "linalg.factor_share": inner / total,
        "linalg.refine_iters": max(r.refine_steps for r in reports),
    }


def service_layer(w: Workload, inp: Inputs, spans: Spans, tally: Tally, requests: int) -> dict:
    """``svc.solve`` from ``W`` closed-loop clients per backend, and what ``svc.stats()`` counted.

    ``overhead_s`` is one client on the process service (the service's default backend)
    against the direct serial ``solve``: what a caller pays for going through the service.
    """
    k = w.systems
    params = {"b": w.b, "tr": w.tr, "tree": w.tree}
    serial = ThreadedExecutor(1)
    m: dict = {}
    totals = dict.fromkeys(("hits", "builds", "ephemeral", "shed", "transitions", "retries"), 0)
    for be in ("threaded", "process"):
        with open_service(be) as svc:
            request = lambda i: svc.solve(inp.A[i % k], inp.rhs[i % k], **params)
            request(0)
            if be == "process":
                one, direct = alternated(
                    lambda: request(0), lambda: solve(inp.A[0], inp.rhs[0], executor=serial, **params), 6
                )
                m["service.overhead_s"] = one - direct
            done, window = closed_loop(request, range(requests), W)
            for i, c, start, dt, res, err in done:
                spans.add(f"op.service.{be}", start, start + dt, op=i, client=c)
                tally.add(f"service.{be}", verify(lambda i, res: check(w, inp, i, res), i, res, err))
            # solve requests return no trace; two factor requests on the same pool do
            totals["retries"] += sum(svc.factor(inp.A[0], **params).trace.retries() for _ in range(2))
            stats = svc.stats()
        latencies = [row[3] for row in done]
        m[f"service.{be}.request_s.p95"] = percentile(latencies, 95)
        m[f"service.{be}.ops_per_s"] = len(latencies) / window
        for key in ("hits", "builds", "ephemeral"):
            totals[key] += stats["plans"][key]
        totals["shed"] += stats["admission"]["shed"]
        totals["transitions"] += stats["breaker"]["transitions"]
    lookups = totals["hits"] + totals["builds"] + totals["ephemeral"]
    m["service.plan_hit_ratio"] = totals["hits"] / lookups
    m["service.plan_builds"] = totals["builds"]
    m["service.shed"] = totals["shed"]
    m["service.breaker_transitions"] = totals["transitions"]
    m["service.retries"] = totals["retries"]
    # The last service closed is the process one: its pool and admission EMA are reported.
    m["service.respawns"] = stats["pool"]["respawns"]
    m["service.ema_service_s"] = stats["admission"]["ema_service_s"]
    return m


def resilience_layer(w: Workload, A: np.ndarray) -> dict:
    serial = ThreadedExecutor(1)
    on, off = alternated(lambda: factor(w, A, serial, guards=True),
                         lambda: factor(w, A, serial, guards=False), 8)
    return {"resilience.guard_overhead_frac": on / off - 1.0}


def trace_overhead(w: Workload, A: np.ndarray) -> dict:
    """What the instrumentation used above costs: counting() on, run() noted, spans recorded."""
    scratch = Spans()
    traced_ex, plain_ex = TracedThreaded(1), ThreadedExecutor(1)

    def traced() -> None:
        with counting():
            traced_op(w, A, traced_ex, scratch, "overhead", 0)

    on, off = alternated(traced, lambda: factor(w, A, plain_ex), 8)
    return {"trace.overhead_frac": on / off - 1.0}


def measure_layers(w: Workload, inp: Inputs, out_dir: Path, service_requests: int = 20) -> dict:
    """One traced pass over *w*: every per-layer metric, the span file, and the op tally."""
    fw = replace(w, solve=False)  # under a solve workload, the layers below see its factorization
    A = inp.A[0]
    tally = Tally()
    spans = Spans()
    metrics, ctx = runtime_layer(fw, A, spans, lambda i, res: check(fw, inp, i, res), tally)
    metrics.update(kernels_layer(fw, A))
    metrics.update(core_layer(fw, A))
    metrics.update(counters_layer(fw, A))
    metrics.update(analysis_layer(fw, A, ctx["factorization"], metrics["counters.syncs.threaded"]))
    machine, controls = machine_layer(fw, A, ctx["walls"], ctx["rep"]["process"]["makespan_s"])
    metrics.update(machine)
    metrics.update(baselines_layer(fw, A, ctx["walls"]["serial"]))
    if w.solve:  # the linalg and service layers are what svc_solve adds; null elsewhere
        metrics.update(linalg_layer(w, inp))
        metrics.update(service_layer(w, inp, spans, tally, service_requests))
    else:
        metrics.update(dict.fromkeys(LINALG + SERVICE))
    metrics.update(resilience_layer(fw, A))
    metrics.update(trace_overhead(fw, A))
    spans.write(out_dir / f"{w.name}.spans.jsonl")
    return {"per_layer": metrics, "attempted": tally.attempted, "failed": tally.failed,
            "fail_frac": tally.failed / tally.attempted, "errors": tally.errors,
            "controls": {**controls, "spans": len(spans.rows)}}
