#!/usr/bin/env python3
"""The repo's one benchmark: paper shapes x three backends beside LAPACK.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                 [--reps N] [--trace [0|1]] [--json PATH] [--smoke]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs.  Each
workload runs in a fresh child interpreter (so ``peak_rss_mb`` and pool state
are per workload) under this process, which adopts and waits for whatever the
child leaves behind: no process outlives the command.  The default mode prints
the end-to-end metrics; ``--trace`` prints the per-layer account instead and
writes ``out/<workload>.spans.jsonl``.  Every run is appended to the results
file, and the last line of stdout is the one-object summary the benchmark
driver reads.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()  # set-up time starts here, before the heavy imports
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    # Sequential vendor kernels inside tasks: task parallelism is the only
    # parallelism measured.  Must precede the first numpy import.
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: How long a process the workload left behind may take to end by itself before it is killed.
#: (multiprocessing's resource tracker ends a few ms after the last holder of its pipe.)
ORPHAN_GRACE_S = 5.0


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def parse_args(spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="measuring window the run is sized for: rounds scale with it, never below 8")
    ap.add_argument("--reps", type=int, default=None, help="timed ops per configuration per block")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="per-layer account instead of the end-to-end metrics")
    ap.add_argument("--json", type=Path, default=None, help="results file to append this run to")
    ap.add_argument("--smoke", action="store_true", help="self-test sizes (not comparable)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)  # set by supervise()
    return ap.parse_args()


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process whose parent has exited is then re-parented here and not to init, so
    ``reap_orphans`` can wait for it.  Elsewhere there is nothing to adopt with; the
    workload's own context managers still close every pool and service.
    """
    if sys.platform == "linux":
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # 36 = PR_SET_CHILD_SUBREAPER


def children_of(pid: int) -> list[int]:
    """Live or zombie processes whose parent is *pid*, read from ``/proc``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()  # after "(comm)": state ppid ...
        except OSError:  # ended while we were looking
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def reap_orphans(grace_s: float = ORPHAN_GRACE_S) -> int:
    """Wait until every process adopted from a finished workload has ended; returns how many
    had to be killed.  Whoever survives *grace_s* gets SIGKILL, and so do the processes that
    one orphans in turn (they are re-parented here and caught by the same loop)."""
    killed, deadline = 0, time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in children_of(os.getpid()):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(orphan, signal.SIGKILL)
                    killed += 1
            deadline = time.monotonic() + grace_s
        time.sleep(0.005)


def supervise(names: list[str], argv: list[str]) -> int:
    """Each workload in its own interpreter; nothing it started is running when this returns."""
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # leave through the finally below
    worst = 0
    for name in names:
        child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                  *argv, "--child", "--workload", name])
        try:
            worst = max(worst, abs(child.wait()))
        finally:  # also on Ctrl-C or SIGTERM: take the child along
            interrupted = child.poll() is None
            if interrupted:
                child.kill()
                child.wait()
            killed = reap_orphans(0.0 if interrupted else ORPHAN_GRACE_S)
        if killed:
            print(f"run.py: killed {killed} process(es) that {name} left running", file=sys.stderr)
            worst = max(worst, 4)
    return worst


def append_run(path: Path, entry: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"schema": 1, "runs": [*runs, entry]}, indent=1) + "\n")


def report(entry: dict, units: dict[str, str], gated: dict[str, str]) -> None:
    """Every metric by name, with its unit and sample count; the ones the driver does not gate say so."""
    w, host = entry["params"], entry["host"]
    print(f"== {entry['workload']}: {w['kind']} {w['m']}x{w['n']} b={w['b']} tr={w['tr']} "
          f"{w['tree']}  seed={entry['seed']} W={host['W']} mode={entry['mode']}"
          f"{' SMOKE' if entry['smoke'] else ''}")
    for name, unit in units.items():
        cell = entry["metrics"][name]
        value = "n/a" if cell["value"] is None else f"{cell['value']:.6g} {unit}"
        n = f"  n={cell['n']}" if "n" in cell else ""
        if "excluded" in cell:  # failed ops of that configuration: in no time, rate or percentile
            n += f" excluded={cell['excluded']}"
        print(f"  {name:34s} {value}{n}{'' if name in gated else '  (reported, not gated)'}")
    for key, value in entry.get("controls", {}).items():
        print(f"  control {key:26s} {value}")
    if host["cores_short"]:
        print(f"  cores_short: {host['affinity']} core(s) for W={host['W']}; *.speedup not comparable")
    print(f"  ops attempted={entry['attempted']} failed={entry['failed']} "
          f"fail_frac={entry['fail_frac']:.4g}  blas={host['blas']} threads={host['blas_threads']}")
    for err in entry["errors"]:
        print(f"  FAILED {err}")


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not args.child:
        names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        return supervise(names, sys.argv[1:])
    if not (REPO / "src" / "repro").is_dir():
        print(f"run.py: the program under test is missing ({REPO / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from compare import REPORTED
    from layers import measure_layers
    from timing import MIN_ROUNDS, host_fingerprint, measure
    from workloads import REPS, WORKLOADS, make_inputs

    w = WORKLOADS[args.workload].sized(args.smoke)
    reps = args.reps or (2 if args.smoke else REPS)
    if args.trace:
        section = spec["per_layer"]
        result = measure_layers(w, make_inputs(w, args.seed), HERE / "out",
                                service_requests=6 if args.smoke else 20)
        values = {k: {"value": v} for k, v in result.pop("per_layer").items()}
    else:
        section = spec["end_to_end"]
        # Fixed work, not a deadline: the same --seconds always means the same ops.
        rounds = max(MIN_ROUNDS, round(MIN_ROUNDS * args.seconds / spec["run_seconds"]))
        result = measure(w, args.seed, T_START, rounds, reps)
        values = result.pop("end_to_end")
    gated = {m["name"]: m["unit"] for m in section}
    units = {**gated, **({} if args.trace else {k: unit for k, (unit, _) in REPORTED.items()})}
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        print(f"run.py: measured metrics and BENCHMARK.json disagree on {odd}", file=sys.stderr)
        return 3
    entry = {
        "workload": w.name,
        "mode": "per_layer" if args.trace else "end_to_end",
        "smoke": args.smoke,
        "seed": args.seed,
        "params": {"kind": w.kind, "m": w.m, "n": w.n, "b": w.b, "tr": w.tr,
                   "tree": w.tree.value, "systems": w.systems},
        "host": host_fingerprint(REPO, args.seed, reps),
        "metrics": values,
        **result,
    }
    report(entry, units, gated)
    default = HERE / "out" / ("smoke.json" if args.smoke else "results.json")
    append_run(args.json or default, entry)
    # The driver's line: every metric BENCHMARK.json lists for the mode, as a number (0 where
    # there is none to report).
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {name: {"value": values[name]["value"] or 0, "unit": unit}
                    for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
