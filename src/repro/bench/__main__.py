"""Command-line entry point: ``python -m repro.bench [names...|all]``.

Options:

``--save DIR``
    Also write each experiment's formatted output to ``DIR/<name>.txt``
    (tables additionally as ``<name>.csv``).
``--report FILE``
    Check the paper's claims (:data:`repro.bench.report.CLAIMS`) against
    the results and write the Markdown report to ``FILE``; the exit
    status is 1 when any checked claim fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, run_all
from repro.bench.report import check_claims, generate_report
from repro.bench.tables import Table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures on the simulated machines.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=["all"],
        help=f"experiments to run: {', '.join(EXPERIMENTS)} or 'all'",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write each result to DIR/<name>.txt (tables also as .csv)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write a Markdown reproduction report (claim checks + outputs)",
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    results = run_all(names)
    if args.save:
        out = Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        for name, result in results.items():
            (out / f"{name}.txt").write_text(result.format() + "\n")
            if isinstance(result, Table):
                (out / f"{name}.csv").write_text(result.to_csv())
        print(f"\nresults written to {out}/")
    if args.report:
        Path(args.report).write_text(generate_report(results) + "\n")
        print(f"report written to {args.report}")
        failed = [claim for claim, ok, _ in check_claims(results) if not ok]
        for claim in failed:
            print(f"FAIL {claim.experiment}: {claim.text}", file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
