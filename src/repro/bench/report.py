"""Automated reproduction report.

Runs (or takes) the experiment results, checks the paper's qualitative
claims against them, and emits a Markdown report with a pass/fail per
claim — the machine-checkable core of EXPERIMENTS.md.  :data:`CLAIMS`
is the only place a claim and its threshold are stated, and ``--report``
exits 1 when one fails.

Usage::

    python -m repro.bench all --report report.md
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.tables import Table

__all__ = ["Claim", "CLAIMS", "check_claims", "generate_report"]


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper about one experiment."""

    experiment: str
    text: str
    check: Callable[[object], tuple[bool, str]]


def _ratio(t: Table, num: str, den: str, row: str) -> float:
    return t.cell(row, num) / t.cell(row, den)


def _mk(experiment: str, text: str):
    def wrap(fn):
        CLAIMS.append(Claim(experiment, text, fn))
        return fn

    return wrap


CLAIMS: list[Claim] = []


@_mk("fig1_fig2", "P/L/U/S DAG; 4 threads open on both TSLU leaves; look-ahead overlaps P[1], S[0]")
def _c_fig12(r):
    flat = [(i, name) for i, step in enumerate(r.steps) for name in step]
    p1 = min(i for i, name in flat if name.startswith("P[1]"))
    s0 = max(i for i, name in flat if name.startswith("S[0]"))
    ok = set("PLUS") <= set(r.kind_counts) and r.dot.startswith("digraph")
    ok = ok and max(map(len, r.steps)) <= 4 and set(r.steps[0]) == {"P[0]leaf0", "P[0]leaf1"}
    return ok and p1 <= s0, f"{r.kind_counts}; P[1] from step {p1 + 1}, S[0] until {s0 + 1}"


@_mk("fig3_fig4", "Tr=1 leaves cores idle during the panel; Tr=8 removes it, >2x GFLOP/s")
def _c_fig34(r):
    speedup = r.gflops_tr8 / r.gflops_tr1
    ok = r.idle_tr1 > 0.3 and r.idle_tr8 < 0.10 and speedup > 2.0
    return ok, f"idle {100 * r.idle_tr1:.0f}% -> {100 * r.idle_tr8:.1f}%, {speedup:.1f}x"


@_mk("fig5", "CALU(Tr=8) beats MKL_dgetrf (1.3-4.5x from n=50; paper: 1.5-2x), dgetf2 >4x")
def _c_fig5_mkl(t):
    ratios = t.ratio("CALU(Tr=8)", "MKL_dgetrf")
    big = np.array([int(n) >= 50 for n in t.row_labels])
    f2 = t.ratio("CALU(Tr=8)", "MKL_dgetf2")[big]
    ok = (ratios > 1.0).all() and (ratios < 4.5).all() and (ratios[big] > 1.3).all()
    ok = ok and (f2 > 4.0).all()
    return bool(ok), f"{ratios.min():.1f}-{ratios.max():.1f}x; over dgetf2 {f2.min():.1f}x+"


@_mk("fig5", "CALU/PLASMA advantage shrinks as n grows (9.4x@10 -> 1.1x@1000)")
def _c_fig5_plasma(t):
    r = t.ratio("CALU(Tr=8)", "PLASMA_dgetrf")
    return bool(r[0] > 4.0 and r[-1] < 2.0), f"{r[0]:.1f}x at n=10, {r[-1]:.2f}x at n=1000"


@_mk("fig6", "~2.3x over MKL_dgetrf at n=500 and ~10x over MKL_dgetf2 at n=100")
def _c_fig6(t):
    a = _ratio(t, "CALU(Tr=8)", "MKL_dgetrf", "500")
    b = _ratio(t, "CALU(Tr=8)", "MKL_dgetf2", "100")
    return bool(1.7 < a < 3.0 and 6.0 < b < 14.0), f"{a:.2f}x (2.3), {b:.1f}x (10)"


@_mk("fig6", "Tr=4 ~8.3x over dgetf2 at n=100, below Tr=8; n=25: ~4x over dgetf2, ~2x dgetrf")
def _c_fig6_small(t):
    a = _ratio(t, "CALU(Tr=4)", "MKL_dgetf2", "100")
    tr8 = t.cell("100", "CALU(Tr=8)") > t.cell("100", "CALU(Tr=4)")
    b, c = (_ratio(t, "CALU(Tr=8)", lib, "25") for lib in ("MKL_dgetf2", "MKL_dgetrf"))
    ok = 5.0 < a < 12.0 and tr8 and b > 2.5 and c > 1.3
    return bool(ok), f"{a:.1f}x (8.3), Tr=8 ahead: {tr8}; {b:.1f}x (4), {c:.1f}x (2)"


@_mk("fig7", "CALU(Tr=16) ~5x over ACML_dgetrf on average, ahead of PLASMA and of Tr=8")
def _c_fig7(t):
    avg = float(np.mean(t.ratio("CALU(Tr=16)", "ACML_dgetrf")))
    ahead = bool((t.column("CALU(Tr=16)") > t.column("PLASMA_dgetrf")).all())
    tr8 = bool((t.ratio("CALU(Tr=16)", "CALU(Tr=8)") >= 0.95).all())
    ok = 3.0 < avg < 7.0 and ahead and tr8
    return bool(ok), f"avg {avg:.1f}x; ahead of PLASMA: {ahead}, of 0.95 Tr=8: {tr8}"


@_mk("fig8", "TSQR ~5.3x MKL_dgeqrf, >3x PLASMA at n=200 (>4x at 10); PLASMA catches it at 1000")
def _c_fig8(t):
    a = _ratio(t, "TSQR(Tr=8)", "MKL_dgeqrf", "200")
    p10, p200 = (_ratio(t, "TSQR(Tr=8)", "PLASMA_dgeqrf", n) for n in ("10", "200"))
    catch = t.cell("1000", "PLASMA_dgeqrf") > 0.85 * t.cell("1000", "TSQR(Tr=8)")
    ok = 3.5 < a < 7.0 and p200 > 3.0 and p10 > 4.0 and catch
    return bool(ok), f"{a:.1f}x, {p200:.1f}x ({p10:.1f}x) at n=200 (10); caught: {catch}"


@_mk("fig8", "CAQR(Tr=4) >1.2x MKL_dgeqrf at n=500-1000 (paper: 1.6x), >10x dgeqr2 at 500")
def _c_fig8_caqr(t):
    a, b = (_ratio(t, "CAQR(Tr=4)", "MKL_dgeqrf", n) for n in ("500", "1000"))
    c = _ratio(t, "CAQR(Tr=4)", "MKL_dgeqr2", "500")
    return bool(a > 1.2 and b > 1.2 and c > 10.0), f"{a:.2f}x, {b:.2f}x; {c:.0f}x"


@_mk("table1", "MKL wins below 5000, CALU(Tr=2) reaches it at 10^4; above 3000 CALU beats PLASMA")
def _c_table1(t):
    c = t.cell
    small = all(c(n, "MKL_dgetrf") > c(n, "CALU(Tr=4)") for n in ("1000", "2000", "3000"))
    gap = {n: _ratio(t, "MKL_dgetrf", "CALU(Tr=4)", n) for n in ("1000", "10000")}
    narrow = gap["1000"] > gap["10000"]
    cross = _ratio(t, "MKL_dgetrf", "CALU(Tr=2)", "5000") < 1.05
    cross = cross and c("10000", "CALU(Tr=2)") >= 0.99 * c("10000", "MKL_dgetrf")
    large = all(
        c(n, "CALU(Tr=4)") > c(n, "PLASMA_dgetrf") and c(n, "CALU(Tr=2)") > c(n, "CALU(Tr=1)")
        for n in ("4000", "5000", "10000")
    )
    ok = small and narrow and cross and large
    return bool(ok), f"small={small}, narrowing={narrow}, cross={cross}, large={large}"


@_mk("table2", "ACML wins at 1000-2000; CALU wins from 3000; CALU >= PLASMA")
def _c_table2(t):
    best = {n: max(t.cell(n, f"CALU(Tr={tr})") for tr in (1, 2, 4, 8, 16)) for n in t.row_labels}
    a = t.cell("1000", "ACML_dgetrf") > best["1000"]
    a = a and t.cell("2000", "ACML_dgetrf") > 0.95 * best["2000"]
    b = all(best[n] > t.cell(n, "ACML_dgetrf") for n in ("3000", "4000", "5000"))
    c = all(best[n] > 0.95 * t.cell(n, "PLASMA_dgetrf") for n in t.row_labels)
    return bool(a and b and c), f"small={a}, large={b}, >=plasma={c}"


@_mk("table3", "on square QR, MKL leads CAQR and the gap narrows with size")
def _c_table3(t):
    best = {n: max(t.cell(n, f"CAQR(Tr={tr})") for tr in (1, 2, 4, 8)) for n in t.row_labels}
    gap = {n: t.cell(n, "MKL_dgeqrf") / best[n] for n in t.row_labels}
    lead = gap["1000"] > 1.0 and gap["2000"] > 0.95
    narrow = gap["1000"] > gap["5000"]
    return bool(lead and narrow and (t.values > 0).all()), f"lead={lead}, narrowing={narrow}"


@_mk("tree_ablation", "the flat (height-1) TSQR tree stays competitive with binary (>0.6x)")
def _c_trees(t):
    r = t.ratio("flat", "binary")
    return bool((r > 0.6).all()), f"flat/binary {r.min():.2f}-{r.max():.2f}"


@_mk("lookahead_ablation", "look-ahead 1 is no slower than none (>=0.95x)")
def _c_lookahead(t):
    r = t.ratio("lookahead=1", "lookahead=0")
    return bool((r >= 0.95).all()), f"{r.min():.2f}-{r.max():.2f}x"


@_mk("lookahead_depth_ablation", "look-ahead depths 0-2 stay in one performance regime (<=2.5x)")
def _c_depths(t):
    secs = t.column("seconds")
    return bool(secs.max() <= 2.5 * secs.min()), f"slowest/fastest {secs.max() / secs.min():.2f}x"


@_mk("overhead_ablation", "per-task overhead degrades every b, the many-task b=50 fastest")
def _c_overhead(t):
    mono = all((col[:-1] >= col[1:] * 0.999).all() for col in t.values.T)
    drop = t.values[0] / t.values[-1]
    ok = mono and drop[0] > drop[-1]
    return bool(ok), f"monotone={mono}; drop b=50 {drop[0]:.2f}x, b=200 {drop[-1]:.2f}x"


@_mk("stability", "tournament pivoting is GEPP-like; incremental pivoting degrades")
def _c_stability(t):
    ok = all(
        t.cell(n, "CALU(Tr=8)") < 5.0 * t.cell(n, "GEPP")
        and t.cell(n, "tiled(nb=n/16)") > t.cell(n, "CALU(Tr=8)")
        for n in t.row_labels
    )
    return ok, "growth ordering GEPP ~ CALU < incremental holds"


@_mk("bb_extension", "B=b is near-optimal: B=800 loses parallelism at every size")
def _c_bb(t):
    r = t.ratio("B=100", "B=800")
    return bool((r > 1.0).all()), f"B=100/B=800 {r.min():.2f}-{r.max():.2f}x"


@_mk("bb_extension", "under costly scheduling (last row) coarser updates pay off: B=200 > B=100")
def _c_bb_overhead(t):
    r = t.ratio("B=200", "B=100")[-1]
    return bool(r > 1.0), f"B=200/B=100 {r:.3f}x at {t.row_labels[-1]}"


@_mk("hybrid_update", "TSLU panel + vendor updates beats pure MKL at m=n=5000, never loses to CALU")
def _c_hybrid(t):
    ok = t.cell("5000", "hybrid(Tr=4)") > t.cell("5000", "MKL_dgetrf")
    ok = ok and (t.column("hybrid(Tr=4)") >= 0.999 * t.column("CALU(Tr=4)")).all()
    return bool(ok), f"hybrid {t.cell('5000', 'hybrid(Tr=4)'):.1f} vs MKL {t.cell('5000', 'MKL_dgetrf'):.1f}"


@_mk("scaling", "MKL's serial panel caps its 16-core speedup (<3x); CALU keeps scaling (>5x)")
def _c_scaling(t):
    mkl, calu = (t.column(c)[-1] / t.column(c)[0] for c in ("MKL_dgetrf", "CALU(Tr=cores)"))
    return bool(mkl < 3.0 and calu > 5.0), f"MKL {mkl:.1f}x, CALU {calu:.1f}x"


def check_claims(results: dict[str, object]) -> list[tuple[Claim, bool, str]]:
    """Evaluate every claim whose experiment is present in *results*."""
    out = []
    for claim in CLAIMS:
        if claim.experiment in results:
            ok, detail = claim.check(results[claim.experiment])
            out.append((claim, ok, detail))
    return out


def generate_report(results: dict[str, object]) -> str:
    """Markdown reproduction report: claim checklist + raw outputs."""
    checks = check_claims(results)
    n_ok = sum(1 for _, ok, _ in checks if ok)
    lines = [
        "# Reproduction report",
        "",
        "Automated check of the paper's claims against this run's simulated",
        "results (Donfack-Grigori-Gupta, IPDPS 2010).",
        "",
        f"**{n_ok}/{len(checks)} claims hold.**",
        "",
        "| experiment | claim | result | detail |",
        "|---|---|---|---|",
    ]
    for claim, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"| {claim.experiment} | {claim.text} | {mark} | {detail} |")
    lines.append("")
    lines.append("## Raw outputs")
    for name, result in results.items():
        lines.append("")
        lines.append(f"### {name}")
        lines.append("")
        lines.append("```")
        lines.append(result.format())
        lines.append("```")
    return "\n".join(lines)
