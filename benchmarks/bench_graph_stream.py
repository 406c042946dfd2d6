"""Streaming graph programs: build cost off the critical path, bounded live set.

ISSUE 4's acceptance benchmark.  Two questions:

* **Time** — eagerly materializing the task graph puts its construction
  on the critical path before the first kernel runs; streaming emits
  panel windows as predecessors complete, overlapping construction with
  execution.  The numeric threaded path must show **no slowdown >5%**
  (it usually shows a small win equal to the build time).
* **Space** — the scheduler's working set.  An eager run holds every
  task live from the start (``peak_live_tasks == n_tasks``); a streamed
  run is bounded by the look-ahead window: only windows ``W .. W+d+1``
  can hold unfinished tasks when the lowest incomplete window is ``W``.

Cases: square CALU (the paper's Table 1 regime) and tall-skinny CALU
(the Figure 5 regime, where panels dominate), plus a paper-scale
*symbolic* CAQR graph through the simulator where the live-set bound
matters most.  Results land in ``results/BENCH_graph_stream.json`` and
``results/bench_graph_stream.txt``.

Set ``GRAPH_STREAM_SMOKE=1`` to run tiny shapes with relaxed timing
gates (CI smoke).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import close_plans
from repro.core.calu import calu, calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.priorities import lookahead_depth
from repro.core.trees import TreeKind
from repro.machine.presets import generic
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.threaded import ThreadedExecutor

RESULTS_DIR = Path(__file__).parent / "results"

SMOKE = bool(os.environ.get("GRAPH_STREAM_SMOKE"))
BEST_OF = 3 if SMOKE else 5
# name -> (m, n, b, tr)
CASES = (
    [("square", 160, 160, 32, 4), ("tall-skinny", 256, 32, 16, 4)]
    if SMOKE
    else [("square", 384, 384, 48, 4), ("tall-skinny", 1024, 128, 32, 8)]
)
SYM_SHAPE = (512, 256, 32) if SMOKE else (2048, 1024, 64)
# Timing gate: the ISSUE's 5% on real shapes; tiny smoke shapes are
# overhead-dominated, so CI only sanity-checks the ratio.
SLOWDOWN_GATE = 1.5 if SMOKE else 1.05


class EagerThreaded:
    """Duck-typed wrapper: the driver materializes the full graph first,
    putting construction on the critical path (the pre-streaming flow),
    then runs it on the same engine-backed thread pool."""

    def __init__(self, n_workers: int):
        self.inner = ThreadedExecutor(n_workers)

    def run(self, graph, journal=None):
        return self.inner.run(graph)


def _paired_best(fns, n=BEST_OF):
    """Interleaved best-of-*n* so machine drift biases no configuration."""
    best = [float("inf")] * len(fns)
    out = [None] * len(fns)
    for _ in range(n):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            out[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, out


def _window_bound(m, n, b, tr, depth: int) -> tuple[int, list[int]]:
    """Max tasks live under look-ahead *depth*: the largest run of
    ``depth + 2`` consecutive windows (windows below the lowest
    incomplete one are fully done; those above ``W + depth + 1`` are
    unemitted).  Window sizes come from a symbolic build of the same
    shape (task structure is identical to the numeric one)."""
    program, _ = calu_program(BlockLayout(m, n, b), tr, TreeKind.BINARY)
    program.materialize()
    sizes = [end - start for start, end in program.windows]
    width = depth + 2
    bound = max(sum(sizes[i : i + width]) for i in range(len(sizes)))
    return bound, sizes


def _run_case(name, m, n, b, tr):
    A = np.random.default_rng(17).standard_normal((m, n))
    depth = lookahead_depth()

    # Build cost alone: materializing the full numeric program.
    build_s, _ = _paired_best(
        [lambda: calu_program(BlockLayout(m, n, b), tr, TreeKind.BINARY, A=A.copy())[0].materialize()]
    )

    calu(A, b=b, tr=tr)  # warm caches and thread machinery

    def first_run(executor):
        close_plans()  # a reused plan is already emitted: nothing would stream
        return calu(A, b=b, tr=tr, executor=executor)

    (eager_s, stream_s), (f_eager, f_stream) = _paired_best(
        [lambda: first_run(EagerThreaded(4)), lambda: first_run(ThreadedExecutor(4))]
    )
    np.testing.assert_array_equal(f_stream.lu, f_eager.lu)
    np.testing.assert_array_equal(f_stream.piv, f_eager.piv)

    st_eager, st_stream = f_eager.trace.stats, f_stream.trace.stats
    bound, _sizes = _window_bound(m, n, b, tr, depth)
    return {
        "case": name,
        "shape": [m, n],
        "b": b,
        "tr": tr,
        "lookahead": depth,
        "n_tasks": st_stream["n_tasks"],
        "build_s": build_s[0],
        "eager": {
            "run_s": eager_s,
            "peak_live_tasks": st_eager["peak_live_tasks"],
        },
        "stream": {
            "run_s": stream_s,
            "emit_s": st_stream["emit_seconds"],
            "peak_live_tasks": st_stream["peak_live_tasks"],
            "windows_emitted": st_stream["windows_emitted"],
            "n_windows": st_stream["n_windows"],
        },
        "peak_live_bound": bound,
        "slowdown": stream_s / eager_s,
    }


def _run_symbolic():
    m, n, b = SYM_SHAPE
    layout = BlockLayout(m, n, b)
    mach = generic(8)

    eager_graph = caqr_program(layout, 4, TreeKind.FLAT)[0].materialize()
    t_eager = SimulatedExecutor(mach).run(eager_graph)
    program = caqr_program(layout, 4, TreeKind.FLAT)[0]
    t_stream = SimulatedExecutor(mach).run(program)
    assert len(t_stream.records) == len(t_eager.records)
    return {
        "case": "symbolic-caqr",
        "shape": [m, n],
        "b": b,
        "n_tasks": t_stream.stats["n_tasks"],
        "eager": {"peak_live_tasks": t_eager.stats["peak_live_tasks"]},
        "stream": {
            "peak_live_tasks": t_stream.stats["peak_live_tasks"],
            "windows_emitted": t_stream.stats["windows_emitted"],
        },
    }


def test_graph_stream_report(save_result):
    rows = [_run_case(*case) for case in CASES]
    sym = _run_symbolic()

    doc = {
        "bench": "graph_stream",
        "config": {
            "best_of": BEST_OF,
            "smoke": SMOKE,
            "lookahead": lookahead_depth(),
            "slowdown_gate": SLOWDOWN_GATE,
        },
        "cases": rows,
        "symbolic": sym,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_graph_stream.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"Streaming vs eager graph construction (best of {BEST_OF}, "
        f"lookahead={lookahead_depth()})",
        f"{'case':<14}{'tasks':>7}{'build':>9}{'eager':>9}{'stream':>9}"
        f"{'ratio':>7}{'live(e)':>9}{'live(s)':>9}{'bound':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['case']:<14}{r['n_tasks']:>7}{r['build_s']:>9.4f}"
            f"{r['eager']['run_s']:>9.4f}{r['stream']['run_s']:>9.4f}"
            f"{r['slowdown']:>7.3f}{r['eager']['peak_live_tasks']:>9}"
            f"{r['stream']['peak_live_tasks']:>9}{r['peak_live_bound']:>7}"
        )
    lines.append(
        f"{sym['case']:<14}{sym['n_tasks']:>7}{'--':>9}{'--':>9}{'--':>9}{'--':>7}"
        f"{sym['eager']['peak_live_tasks']:>9}{sym['stream']['peak_live_tasks']:>9}{'--':>7}"
    )
    save_result("bench_graph_stream", "\n".join(lines))

    for r in rows:
        # Eager runs hold the whole graph live; streamed runs stay
        # within the look-ahead window.
        assert r["eager"]["peak_live_tasks"] == r["n_tasks"]
        assert r["stream"]["peak_live_tasks"] <= r["peak_live_bound"]
        assert r["stream"]["peak_live_tasks"] < r["n_tasks"]
        assert r["stream"]["windows_emitted"] == r["stream"]["n_windows"]
        # The ISSUE's gate: streaming must not slow the numeric path.
        assert r["slowdown"] <= SLOWDOWN_GATE, (
            f"{r['case']}: streamed run {r['stream']['run_s']:.4f}s vs eager "
            f"{r['eager']['run_s']:.4f}s exceeds the {SLOWDOWN_GATE:.0%} gate"
        )
    assert sym["stream"]["peak_live_tasks"] < sym["eager"]["peak_live_tasks"]
    assert sym["eager"]["peak_live_tasks"] == sym["n_tasks"]
