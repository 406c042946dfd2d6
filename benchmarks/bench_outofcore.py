"""Out-of-core tall-skinny factorization under a capped budget (ISSUE 10).

Factors a 1,000,000 x 64 panel (512 MiB) through the mmap-backed tile
plane with a 40 MiB fast-memory budget — a 12.8x out-of-core ratio —
and checks the measured store traffic against the closed forms in
:mod:`repro.analysis.io_model`:

* **tsqr / tslu streaming**: factor-phase words moved (leaf reads +
  factored write-backs; the staging write that puts the panel in slow
  memory is reported in its own column — the models price a panel that
  is already there) must land within 5 % of ``panel_io_tsqr_flat``
  resp. the two-phase ``panel_io_ca_flat``.  Asserted unconditionally
  — it is a property of the streaming schedule, not of the host.
* **bitwise parity**: on a size the in-memory drivers can also run,
  the out-of-core results agree bit for bit.
* **numerics at full scale**: the panel never exists in memory, so
  correctness is checked via the Gram identity ``R'R = A'A`` (with
  ``A'A`` accumulated streaming) and a sampled ``PA = LU`` window.

``OUTOFCORE_SMOKE=1`` shrinks the panel to 100,000 x 32 with a 2 MiB
budget (same 12x+ out-of-core ratio) for CI.  Results land in
``results/BENCH_outofcore.json`` (the tracked full-size run; a smoke
run writes the git-ignored ``results/smoke/BENCH_outofcore.json``
instead) and ``tables/bench_outofcore.txt``.
"""

import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from repro.analysis.io_model import predicted_panel_io
from repro.core.outofcore import tslu_ooc, tsqr_ooc
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.counters import counting
from repro.kernels.lu import piv_to_perm

RESULTS_DIR = Path(__file__).parent / "results"

SMOKE = os.environ.get("OUTOFCORE_SMOKE", "") not in ("", "0")
if SMOKE:
    M, N, BUDGET = 100_000, 32, 2 << 20
    RESULTS_DIR = RESULTS_DIR / "smoke"  # git-ignored: never the tracked full-size file
else:
    M, N, BUDGET = 1_000_000, 64, 40 << 20
N_WORKERS = 2
PANEL_BYTES = M * N * 8
GEN_STEP = 8192  # generator stride (absolute-aligned: chunking-invariant)


def _fill(r0: int, r1: int) -> np.ndarray:
    """Panel rows [r0, r1) as a pure function of the absolute row index."""
    out = np.empty((r1 - r0, N))
    s = (r0 // GEN_STEP) * GEN_STEP
    while s < r1:
        blk = np.random.default_rng(s).standard_normal((min(GEN_STEP, M - s), N))
        a0, a1 = max(r0, s), min(r1, s + GEN_STEP)
        out[a0 - r0 : a1 - r0] = blk[a0 - s : a1 - s]
        s += GEN_STEP
    return out


SOURCE = ((M, N), _fill)


def _gram() -> np.ndarray:
    """A'A accumulated streaming — N x N resident, panel never held."""
    G = np.zeros((N, N))
    for r0 in range(0, M, GEN_STEP):
        blk = _fill(r0, min(M, r0 + GEN_STEP))
        G += blk.T @ blk
    return G


def _maxrss_bytes() -> int:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb << 10  # Linux reports KiB


def _traffic_row(name, kind, wall_s, ctr, n_chunks, staged_bytes):
    """Pair measured store traffic with its io_model closed form.

    The comparison is on factor-phase traffic: *staged_bytes* (the
    write that first puts the panel in the store) is subtracted, since
    every closed form prices a panel already in slow memory.
    """
    store_bytes = ctr.store_read_bytes + ctr.store_write_bytes
    measured_words = (store_bytes - staged_bytes) // 8
    predicted = predicted_panel_io(kind, M, N, BUDGET // 8)
    ratio = measured_words / predicted
    assert 0.95 <= ratio <= 1.05, (
        f"{name}: measured/predicted factor-phase traffic = {ratio:.4f}, "
        f"not within 5% of the {kind!r} closed form"
    )
    return {
        "case": name,
        "io_model": kind,
        "wall_s": wall_s,
        "n_chunks": n_chunks,
        "store_read_bytes": ctr.store_read_bytes,
        "store_write_bytes": ctr.store_write_bytes,
        "staging_write_bytes": staged_bytes,
        "factor_write_bytes": ctr.store_write_bytes - staged_bytes,
        "measured_words": measured_words,
        "predicted_words": predicted,
        "measured_over_predicted": ratio,
        "ru_maxrss_bytes": _maxrss_bytes(),
    }


def _run_tsqr(G):
    with counting() as c:
        t0 = time.perf_counter()
        f = tsqr_ooc(SOURCE, memory_budget=BUDGET, n_workers=N_WORKERS)
        wall = time.perf_counter() - t0
    try:
        RtR = f.R.T @ f.R
        assert np.allclose(RtR, G, rtol=1e-6, atol=1e-6 * np.abs(G).max()), (
            "tsqr_ooc: R fails the Gram identity R'R = A'A"
        )
        row = _traffic_row("tsqr_ooc", "tsqr_flat", wall, c, len(f.chunks), PANEL_BYTES)
    finally:
        f.destroy()
    return row


def _run_tslu():
    with counting() as c:
        t0 = time.perf_counter()
        f = tslu_ooc(SOURCE, memory_budget=BUDGET, n_workers=N_WORKERS)
        wall = time.perf_counter() - t0
    try:
        perm = piv_to_perm(f.piv, M)
        U = np.triu(f.lu_rows(0, N))
        r0 = (M // 2 // GEN_STEP) * GEN_STEP  # sampled window below the pivot block
        Lw = f.lu_rows(r0, r0 + N)
        rows = np.empty((N, N))
        for i in range(N):
            src = int(perm[r0 + i])
            rows[i] = _fill(src, src + 1)[0]
        assert np.allclose(Lw @ U, rows), "tslu_ooc: PA != LU on sampled window"
        row = _traffic_row("tslu_ooc", "ca_flat", wall, c, len(f.chunks), PANEL_BYTES)
    finally:
        f.destroy()
    return row


def _parity_rows():
    """Bitwise parity with the in-memory drivers on an overlapping size."""
    m0, n0, tr0 = 6000, N, 8
    A = np.random.default_rng(5).standard_normal((m0, n0))
    f_mem = tsqr(A, tr=tr0, tree=TreeKind.FLAT)
    with tsqr_ooc(A, tr=tr0) as f_ooc:
        qr_exact = bool(np.array_equal(f_mem.R, f_ooc.R))
    lu_mem, piv_mem = tslu(A, tr=tr0, tree=TreeKind.FLAT)
    with tslu_ooc(A, tr=tr0) as res:
        lu_exact = bool(
            np.array_equal(lu_mem, res.lu()) and np.array_equal(piv_mem, res.piv)
        )
    assert qr_exact, "tsqr_ooc is not bitwise identical to in-memory tsqr"
    assert lu_exact, "tslu_ooc is not bitwise identical to in-memory tslu"
    return {"shape": [m0, n0], "tr": tr0, "tsqr_bitwise": qr_exact, "tslu_bitwise": lu_exact}


def test_outofcore_report(save_result):
    assert PANEL_BYTES >= 10 * BUDGET, "panel must be >= 10x the memory budget"
    parity = _parity_rows()
    G = _gram()
    rows = [_run_tsqr(G), _run_tslu()]

    doc = {
        "bench": "outofcore",
        "config": {
            "m": M,
            "n": N,
            "panel_bytes": PANEL_BYTES,
            "memory_budget_bytes": BUDGET,
            "panel_over_budget": PANEL_BYTES / BUDGET,
            "n_workers": N_WORKERS,
            "smoke": SMOKE,
            "cpu_count": os.cpu_count() or 1,
            "store": "mmap",
        },
        "parity": parity,
        "cases": rows,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_outofcore.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"Out-of-core panel {M}x{N} ({PANEL_BYTES / (1 << 20):.0f} MiB) under a "
        f"{BUDGET / (1 << 20):.0f} MiB budget ({PANEL_BYTES / BUDGET:.1f}x out of core, "
        f"{N_WORKERS} workers, mmap store)",
        f"{'case':<16}{'wall s':>8}{'chunks':>8}{'read MiB':>10}{'write MiB':>10}"
        f"{'stage MiB':>10}{'meas Mw':>9}{'pred Mw':>9}{'ratio':>8}{'rss MiB':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['case']:<16}{r['wall_s']:>8.2f}{r['n_chunks']:>8}"
            f"{r['store_read_bytes'] / (1 << 20):>10.1f}"
            f"{r['store_write_bytes'] / (1 << 20):>10.1f}"
            f"{r['staging_write_bytes'] / (1 << 20):>10.1f}"
            f"{r['measured_words'] / 1e6:>9.1f}{r['predicted_words'] / 1e6:>9.1f}"
            f"{r['measured_over_predicted']:>8.4f}"
            f"{r['ru_maxrss_bytes'] / (1 << 20):>9.0f}"
        )
    lines.append(
        f"parity {parity['shape'][0]}x{parity['shape'][1]}: "
        f"tsqr bitwise={parity['tsqr_bitwise']} tslu bitwise={parity['tslu_bitwise']}"
    )
    save_result("bench_outofcore", "\n".join(lines))
