"""Service-layer cost model: fault-free overhead and behaviour under overload.

Two questions decide whether the service front-end can wrap every
solve by default:

* What does the service add on a **cached shape** when nothing goes
  wrong?  Admission, plan checkout and the deadline reaper must stay
  under 5% on top of a direct ``linalg.solve`` of the same problem.
* What happens when offered load exceeds capacity?  The sweep drives
  the service at multiples of its measured sustainable rate and
  reports p50/p99 latency of admitted requests plus the shed rate —
  the point being that p99 stays bounded *because* excess load is
  shed at admission instead of queueing without bound.

Results land in ``results/BENCH_service.json`` (machine-readable) and
``tables/bench_service.txt`` (formatted table, git-ignored).  Set
``SERVICE_BENCH_SMOKE=1`` for tiny CI shapes with a relaxed overhead
gate; a smoke run writes its JSON to the git-ignored
``results/smoke/BENCH_service.json``, leaving the tracked full-size
file alone (the table goes to ``tables/`` as usual).
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.linalg import solve as linalg_solve
from repro.service import AdmissionRejected, FactorizationService, ServiceConfig

RESULTS_DIR = Path(__file__).parent / "results"

SMOKE = bool(os.environ.get("SERVICE_BENCH_SMOKE"))
if SMOKE:
    RESULTS_DIR = RESULTS_DIR / "smoke"  # git-ignored: never the tracked full-size file
N = 128 if SMOKE else 512
CORES = 2 if SMOKE else 4
BEST_OF = 3 if SMOKE else 7
SWEEP_REQUESTS = 8 if SMOKE else 24
OVERHEAD_GATE_PCT = 50.0 if SMOKE else 5.0
LOADS = (0.5, 2.0, 4.0)


def _paired_best(fns, n=BEST_OF):
    """Best-of-*n* for several configurations, interleaved per round so
    machine drift (warmup, other processes) biases none of them."""
    best = [float("inf")] * len(fns)
    for _ in range(n):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _overload_sweep(svc, A, rhs, service_s):
    """Open-loop load sweep: fire requests at multiples of the
    sustainable rate, classify every outcome, report tail latency.

    Concurrent requests share the same cores, so the backend's
    aggregate capacity is ~1/service_s no matter how many admission
    slots exist; the slots only bound *concurrency*, not throughput."""
    sustainable = 1.0 / max(service_s, 1e-6)
    rows = []
    for load in LOADS:
        interval = 1.0 / (load * sustainable)
        outcomes = []
        lock = threading.Lock()

        def client():
            t0 = time.perf_counter()
            try:
                svc.solve(A, rhs)
                with lock:
                    outcomes.append(("ok", time.perf_counter() - t0))
            except AdmissionRejected:
                with lock:
                    outcomes.append(("shed", time.perf_counter() - t0))

        threads = []
        t_start = time.perf_counter()
        for i in range(SWEEP_REQUESTS):
            target = t_start + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t = threading.Thread(target=client)
            t.start()
            threads.append(t)
        for t in threads:
            t.join(timeout=600)
        elapsed = time.perf_counter() - t_start

        lat = sorted(s for kind, s in outcomes if kind == "ok")
        shed = sum(1 for kind, _ in outcomes if kind == "shed")
        rows.append(
            {
                "load": load,
                "offered": SWEEP_REQUESTS,
                "admitted": len(lat),
                "shed": shed,
                "shed_rate": shed / SWEEP_REQUESTS,
                "throughput_rps": len(lat) / max(elapsed, 1e-9),
                "p50_ms": 1e3 * _percentile(lat, 0.50),
                "p99_ms": 1e3 * _percentile(lat, 0.99),
            }
        )
    return sustainable, rows


def test_service_report(save_result):
    rng = np.random.default_rng(17)
    A = rng.standard_normal((N, N)) + N * np.eye(N)
    rhs = rng.standard_normal(N)

    cfg = ServiceConfig(cores=CORES, backend="threaded", max_active=2, max_queue=2)
    with FactorizationService(cfg) as svc:
        # Warm both paths: direct solve spins up its thread machinery,
        # the first service call builds and caches the plan.
        linalg_solve(A, rhs, cores=CORES)
        svc.solve(A, rhs)

        direct_s, service_s = _paired_best(
            [
                lambda: linalg_solve(A, rhs, cores=CORES),
                lambda: svc.solve(A, rhs),
            ]
        )
        overhead_pct = 100.0 * (service_s - direct_s) / direct_s

        sustainable, sweep = _overload_sweep(svc, A, rhs, service_s)
        stats = svc.stats()

    doc = {
        "bench": "service",
        "config": {
            "n": N,
            "cores": CORES,
            "best_of": BEST_OF,
            "max_active": cfg.max_active,
            "max_queue": cfg.max_queue,
            "sweep_requests": SWEEP_REQUESTS,
            "smoke": SMOKE,
        },
        "fault_free": {
            "direct_solve_s": direct_s,
            "service_solve_s": service_s,
            "overhead_pct": overhead_pct,
            "gate_pct": OVERHEAD_GATE_PCT,
            "plan_hits": stats["plans"]["hits"],
        },
        "overload": {
            "sustainable_rps": sustainable,
            "sweep": sweep,
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"Factorization service, {N}x{N} solve on {CORES} cores"
        f" (cached plan, threaded backend)",
        f"direct {direct_s * 1e3:8.1f} ms   service {service_s * 1e3:8.1f} ms"
        f"   overhead {overhead_pct:+.2f}% (gate {OVERHEAD_GATE_PCT:.0f}%)",
        "",
        f"Overload sweep (sustainable {sustainable:.1f} req/s,"
        f" max_active={cfg.max_active}, max_queue={cfg.max_queue})",
        f"{'load':>5} {'offered':>8} {'admitted':>9} {'shed':>5}"
        f" {'shed%':>6} {'req/s':>7} {'p50 ms':>8} {'p99 ms':>8}",
    ]
    for r in sweep:
        lines.append(
            f"{r['load']:5.1f} {r['offered']:8d} {r['admitted']:9d}"
            f" {r['shed']:5d} {100 * r['shed_rate']:6.1f}"
            f" {r['throughput_rps']:7.1f} {r['p50_ms']:8.1f} {r['p99_ms']:8.1f}"
        )
    save_result("bench_service", "\n".join(lines))

    # The acceptance gates.
    assert overhead_pct < OVERHEAD_GATE_PCT, (
        f"service overhead {overhead_pct:.2f}% exceeds {OVERHEAD_GATE_PCT}% "
        f"(direct {direct_s:.4f}s vs service {service_s:.4f}s)"
    )
    # Past saturation the queue is bounded, so overload must shed.
    assert sweep[-1]["shed"] > 0, "4x overload shed nothing: queue unbounded?"
    # Everything admitted came back: offered = admitted + shed.
    for r in sweep:
        assert r["admitted"] + r["shed"] == r["offered"]
