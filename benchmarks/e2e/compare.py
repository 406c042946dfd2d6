#!/usr/bin/env python3
"""Compare two sets of end-to-end runs against the bounds in ``BENCHMARK.json``.

    python benchmarks/e2e/compare.py a.json b.json

Each file is a results file written by ``run.py --json`` and may hold
several runs per workload (other seeds, repeated invocations).  Per workload
x end-to-end metric this prints both medians, the relative change of b over
a (base: a's median, positive = worse), the bound, and a verdict.  The gated
metrics of ``BENCHMARK.json`` come first, then (marked ``*``) the readings every
run reports but the driver does not gate (``REPORTED``: absolute times
and rates, ``threaded.*``, ``lapack.ratio``), which only runs alternated on one host
can resolve:

``ok``          b's median is within the bound of a's;
``regression``  b's median is worse than a's by more than the bound;
``unresolved``  the run-to-run spread (inter-quartile range over median, the
                wider of the two sides) exceeds the bound, so the runs cannot
                tell -- unless every run of b reads better than every run of a.

Under each workload the two controls that say whether the *host* moved between
the sets are printed the same way: ``lapack.op_s.p50`` (the yardstick, none of
this repo's code) and ``canary_s.p50``.  A control whose median moved by more
than 5 % labels the pair ``host-disturbed`` (else ``quiet``); no verdict hangs on it.

Exits non-zero if any gated pairing is a ``regression``.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: End-to-end readings that every run measures, prints and stores but ``BENCHMARK.json`` does
#: not gate: name -> (unit, better).  Absolute times and rates follow the host's phase (set
#: medians of unchanged code 25-40 % apart), ``threaded`` on two cores is chaotic (GIL
#: hand-offs: ``svc_solve`` spread 37-54 %), and ``lapack.ratio`` divides a time that doubles
#: under a noisy neighbour by one that rises by a quarter (``svc_solve`` spread 27 %).
#: README "Calibration".
REPORTED = {
    "serial.op_s.p50": ("s", "lower"),
    "threaded.op_s.p50": ("s", "lower"),
    "threaded.op_s.p75": ("s", "lower"),
    "threaded.gflops": ("GFLOP/s", "higher"),
    "threaded.speedup": ("x", "higher"),
    "process.op_s.p50": ("s", "lower"),
    "process.op_s.p75": ("s", "lower"),
    "process.gflops": ("GFLOP/s", "higher"),
    "lapack.ratio": ("x", "lower"),
}
#: The bound alternated runs of the reported readings are judged by here.
REPORTED_BOUND = 0.25
CONTROLS = ("lapack.op_s.p50", "canary_s.p50")
HOST_MOVED = 0.05


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric or control) -> one value per full-size end-to-end run in the file."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["mode"] != "end_to_end" or run["smoke"]:
            continue
        for name, cell in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(cell["value"])
        for name in CONTROLS:
            out.setdefault((run["workload"], name), []).append(run["controls"][name])
    return out


def spread(values: list[float]) -> float:
    """Inter-quartile range over the median; 0 when there are too few runs to tell."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, float, str]:
    """``(relative change toward worse, spread, verdict)`` of b against a."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / abs(base)
    wide = max(spread(a), spread(b))
    if wide > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return worse, wide, "ok" if all_better else "unresolved"
    return worse, wide, "regression" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    a, b = load(argv[0]), load(argv[1])
    counts = {star: {"ok": 0, "regression": 0, "unresolved": 0} for star in ("", "*")}
    print(f"{'workload':10s} {'metric':20s} {'a.p50':>11s} {'b.p50':>11s} {'worse by':>9s} "
          f"{'spread':>7s} {'bound':>6s}  verdict   (n_a, n_b; change and spread relative to a.p50)")
    judged = [("", m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]] + [
        ("*", name, better, REPORTED_BOUND) for name, (_, better) in REPORTED.items()
    ]
    for w in spec["workloads"]:
        for star, name, better, bound in judged:
            key, label, tally = (w["name"], name), star + name, counts[star]
            if key not in a or key not in b:
                print(f"{key[0]:10s} {label:20s} missing from {'a' if key not in a else 'b'}")
                tally["unresolved"] += 1
                continue
            worse, wide, word = verdict(a[key], b[key], better, bound)
            tally[word] += 1
            print(f"{key[0]:10s} {label:20s} {statistics.median(a[key]):11.5g} "
                  f"{statistics.median(b[key]):11.5g} {worse:+9.1%} {wide:7.1%} "
                  f"{bound:6.1%}  {word:10s}({len(a[key])}, {len(b[key])})")
        for name in CONTROLS:
            key = (w["name"], name)
            if key in a and key in b:
                pa, pb = statistics.median(a[key]), statistics.median(b[key])
                label = "host-disturbed" if abs(pb - pa) / pa > HOST_MOVED else "quiet"
                print(f"{key[0]:10s} {key[1]:20s} {pa:11.5g} {pb:11.5g} {(pb - pa) / pa:+9.1%} "
                      f"{max(spread(a[key]), spread(b[key])):7.1%}         control: {label}")
    for star, label in (("", "gated"), ("*", "reported (*)")):
        print(f"{label}: " + ", ".join(f"{n} {word}" for word, n in counts[star].items()))
    return 1 if counts[""]["regression"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
