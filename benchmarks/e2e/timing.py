"""Blocked closed-loop timing, the set-up phase, the canary and the host fingerprint.

Method (identical on every commit, see README.md): the repro configurations
are timed in blocks -- a fixed-work canary, a few LAPACK ops (the yardstick),
one untimed op that re-warms what the previous block evicted, then the timed
ops -- and the blocks of a round run in rotated order, after one settling round.  ``gc`` is off inside a block and collected
between ops.  Outputs are checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from repro.machine.autotune import clear_cache

from workloads import CONFIGS, REPS, W, Config, Workload, check, make_inputs, open_configs, parity_ok

#: Timed blocks per configuration of a ``run_seconds`` run; ``--seconds`` scales it, never
#: below this.  One untimed settling round precedes them (see ``run_rounds``).
MIN_ROUNDS = 8
#: Set-up is run this many times per run and the median reported: the driver's contract
#: asks for a steady ``setup_s``.  The two repeats cost ~0.8 s of a ~23 s run.
SETUPS = 3
CANARY_N = 512
CANARY_REPS = 3

perf = time.perf_counter


def percentile(values: list[float], q: float) -> float | None:
    """None without samples: a configuration whose every op failed has no time to report."""
    return float(np.percentile(values, q)) if values else None


def ratio(a: float | None, b: float | None) -> float | None:
    return a / b if a and b else None


# ----------------------------------------------------------------------
# Ops, blocks, rounds
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Every op the harness ran, and the ones that raised, stalled or failed their check."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, config: str, err: str | None) -> None:
        self.attempted += 1
        if err is not None:
            self.fail(config, err)

    def fail(self, config: str, err: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{config}: {err}")


def run_op(op: Callable[[int], object], i: int) -> tuple[float, object, str | None]:
    """Time one op.  A raising op is a counted failure: the run goes on."""
    t0 = perf()
    try:
        res = op(i)
    except Exception as exc:  # boundary: the benchmark must outlive a failing op
        return perf() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf() - t0, res, None


def verify(checker: Callable[[int, object], None], i: int, res, err: str | None) -> str | None:
    """Check an op's output (outside the timed region); returns the failure, if any."""
    if err is not None:
        return err
    try:
        checker(i, res)
    except Exception as exc:  # boundary: a corrupted output may break the check itself
        return f"{type(exc).__name__}: {exc}"
    return None


def canary() -> float:
    """Fixed work that shares nothing with the program: the median 512^3 matmul of a short loop."""
    a = np.full((CANARY_N, CANARY_N), 0.5)
    out = np.empty_like(a)
    np.matmul(a, a, out=out)  # untimed: pages and caches touched once
    times = []
    for _ in range(CANARY_REPS):
        t0 = perf()
        np.matmul(a, a, out=out)
        times.append(perf() - t0)
    return statistics.median(times)


@dataclass
class Timed:
    """The timed ops of one configuration in one block."""

    seconds: list[float]  # per op that returned a checked output
    n_failed: int  # ops that raised or failed their check: in the window, in no percentile
    window_s: float  # timed-window wall: sum of ops (1 client) or first start to last end
    cold_s: float  # the untimed re-warming op before them


@dataclass
class Block:
    canary_s: float
    lapack: Timed  # the yardstick, sampled at the head of every block
    ops: Timed  # the block's own configuration


def closed_loop(op: Callable[[int], object], indices: range, clients: int) -> tuple[list[tuple], float]:
    """*clients* threads, each sending its next request when its previous one returns.

    Returns ``(rows, window_s)`` with one ``(i, client, started, seconds, result, error)`` per op.
    """
    rows: list[tuple] = []

    def client(c: int) -> None:
        for i in indices[c::clients]:
            t0 = perf()
            rows.append((i, c, t0, *run_op(op, i)))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    t0 = perf()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows, perf() - t0


def run_timed(cfg: Config, k: int, checker, tally: Tally) -> Timed:
    """One untimed op, then ``cfg.block_ops`` timed ops from ``cfg.clients`` clients, every
    output checked.  The *k*-th call visits fresh op indices, so round-robin inputs keep rotating."""
    start = k * (cfg.block_ops + 1)
    cold_s, res, err = run_op(cfg.op, start)
    tally.add(cfg.name, verify(checker, start, res, err))
    res = None
    indices = range(start + 1, start + 1 + cfg.block_ops)
    out = Timed([], 0, 0.0, cold_s)

    def record(i: int, dt: float, res, err: str | None) -> None:
        err = verify(checker, i, res, err)
        tally.add(cfg.name, err)
        if err is None:
            out.seconds.append(dt)
        else:
            out.n_failed += 1

    if cfg.clients > 1:
        rows, out.window_s = closed_loop(cfg.op, indices, cfg.clients)
        for i, _, _, dt, res, err in rows:
            record(i, dt, res, err)
        return out
    for i in indices:  # one client: the harness thread itself, gc collected between ops
        gc.collect()
        dt, res, err = run_op(cfg.op, i)
        out.window_s += dt
        record(i, dt, res, err)
        res = None
    return out


def run_block(cfg: Config, lapack: Config, k: int, checker, tally: Tally) -> Block:
    """The *k*-th block of the run: canary, the LAPACK yardstick, then *cfg*'s ops."""
    gc.collect()
    gc.disable()
    try:
        return Block(canary(), run_timed(lapack, k, checker, tally), run_timed(cfg, k, checker, tally))
    finally:
        gc.enable()


def run_rounds(
    configs: dict[str, Config], checker, tally: Tally, rounds: int = MIN_ROUNDS
) -> tuple[dict[str, list[Block]], dict[str, Block]]:
    """One settling round, then *rounds* timed rounds of one block per repro configuration,
    in an order that rotates.  Returns ``(timed blocks, settling round)``.

    LAPACK has no block of its own.  BLAS-bound work wanders by a factor of 1.5 from one
    tenth of a second to the next on a shared host (interpreter-bound work by 1.1), so the
    yardstick is sampled like the canary, a few ops at the head of every block: its median
    then sees the same stretches of the run as the configurations it is compared with.

    The settling round is to a run what the untimed op is to a block.  Until the pool's
    workers and the engine's threads have each run for about a second, the kernel keeps them
    on one core: the first process block reads 1.5x its settled time and the first threaded
    block 0.4x (no cross-core GIL hand-offs yet).  Its ops are checked and counted like any
    other, and its times are kept as a control, not discarded silently.
    """
    lapack = configs["lapack"]
    names = [name for name in configs if name != "lapack"]
    blocks: dict[str, list[Block]] = {name: [] for name in names}
    for r in range(rounds + 1):
        for k, name in enumerate(names[r % len(names):] + names[: r % len(names)]):
            if r % configs[name].every and r:  # the settling round (r = 0) leaves nobody out
                continue
            blocks[name].append(run_block(configs[name], lapack, r * len(names) + k, checker, tally))
    return {name: bs[1:] for name, bs in blocks.items()}, {name: bs[0] for name, bs in blocks.items()}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(w: Workload, seed: int, reps: int, stack: contextlib.ExitStack, tally: Tally):
    """Inputs, pools/services, one checked warm-up op per configuration, the parity gate."""
    clear_cache()  # repeated set-ups must pay the autotuner's pipe calibration like the first
    inp = make_inputs(w, seed)
    configs = stack.enter_context(open_configs(w, inp, reps))

    def checker(i: int, res) -> None:
        check(w, inp, i, res)

    outputs = {}
    for cfg in configs.values():
        _, res, err = run_op(cfg.op, 0)
        err = verify(checker, 0, res, err)
        tally.add(cfg.name, err)
        if err is None:
            outputs[cfg.name] = res
    if all(name in outputs for name in CONFIGS) and not parity_ok(w, outputs):
        for name in CONFIGS:  # a mismatch fails the warm-up op of every configuration
            tally.fail(name, "bitwise parity of serial/threaded/process factors broken")
    return inp, configs, checker


def measure(w: Workload, seed: int, t_start: float, rounds: int = MIN_ROUNDS, reps: int = REPS) -> dict:
    """One end-to-end run of *w*; returns the results-file entry."""
    tally = Tally()
    imports_s = perf() - t_start
    setups = []
    for k in range(SETUPS):
        with contextlib.ExitStack() as stack:
            t0 = perf()
            _, configs, checker = set_up(w, seed, reps, stack, tally)
            setups.append(perf() - t0)
            if k == SETUPS - 1:  # the last set-up is the one the timed rounds run on
                blocks, settling = run_rounds(configs, checker, tally, rounds)
                rounds_wall_s = perf() - t0 - setups[-1]
    result = summarize(w, blocks, tally, imports_s + statistics.median(setups), setups)
    result["controls"]["rounds_wall_s"] = rounds_wall_s
    result["controls"]["settling_round.op_s.p50"] = {
        name: percentile(b.ops.seconds, 50) for name, b in settling.items()
    }
    return result


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def summarize(w: Workload, blocks: dict[str, list[Block]], tally: Tally,
              setup_s: float, setups: list[float]) -> dict:
    """The end-to-end metrics (the gated ones and ``REPORTED``), with sample counts, plus the controls.

    Times and rates count completed ops only: an op that raised or failed its check stays
    in the timed window (it cost that time) but earns no flops and enters no percentile.
    """
    timed = {name: [b.ops for b in bs] for name, bs in blocks.items()}
    timed["lapack"] = [b.lapack for bs in blocks.values() for b in bs]
    secs = {name: [s for t in ts for s in t.seconds] for name, ts in timed.items()}
    excluded = {name: sum(t.n_failed for t in ts) for name, ts in timed.items()}
    p50 = {name: percentile(s, 50) for name, s in secs.items()}
    metrics = {"setup_s": (setup_s, len(setups)), "serial.op_s.p50": (p50["serial"], len(secs["serial"]))}
    for be in ("threaded", "process"):
        n = len(secs[be])
        window = sum(t.window_s for t in timed[be])
        metrics[f"{be}.op_s.p50"] = (p50[be], n)
        metrics[f"{be}.op_s.p75"] = (percentile(secs[be], 75), n)
        metrics[f"{be}.gflops"] = (w.flops * n / window / 1e9, n)
        metrics[f"{be}.speedup"] = (ratio(p50["serial"], p50[be]), n)
    metrics["process.tail"] = (ratio(metrics["process.op_s.p75"][0], p50["process"]), len(secs["process"]))
    best = min((p50[be] for be in ("threaded", "process") if p50[be]), default=None)
    metrics["lapack.ratio"] = (ratio(best, p50["lapack"]), len(secs["lapack"]))
    metrics["lapack.serial_ratio"] = (ratio(p50["serial"], p50["lapack"]), len(secs["lapack"]))
    metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    metrics["ok_frac"] = (1.0 - tally.failed / tally.attempted, tally.attempted)
    canaries = [b.canary_s for bs in blocks.values() for b in bs]
    q1, _, q3 = statistics.quantiles(canaries, n=4)

    def cell(name: str, value: float, n: int) -> dict:
        config = name.split(".")[0]
        return {"value": value, "n": n, **({"excluded": excluded[config]} if config in secs else {})}

    return {
        "end_to_end": {k: cell(k, v, n) for k, (v, n) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "errors": tally.errors,
        "controls": {
            "lapack.op_s.p50": p50["lapack"],
            "canary_s.p50": statistics.median(canaries),
            "canary_s.max_over_min": max(canaries) / min(canaries),
            "canary_s.iqr_over_p50": (q3 - q1) / statistics.median(canaries),
            "setup_s.repeats": setups,
            "process.cold_op_s.p50": statistics.median(t.cold_s for t in timed["process"]),
            "rounds": len(blocks["serial"]),
        },
    }


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _blas_threads() -> str:
    """Effective OpenBLAS thread count, read from the loaded library (env value as fallback)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return "env:" + os.environ.get("OPENBLAS_NUM_THREADS", "unset")


def _git_commit(repo: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(repo: Path, seed: int, reps: int) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "cores_short": (affinity or 1) < W,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "git_commit": _git_commit(repo),
        "W": W,
        "seed": seed,
        "reps": reps,
    }
