#!/usr/bin/env python3
"""Run the benchmark grid, write the CSV, and print the claims report.

Defaults to the acceptance grid (--threads 1,2,4,8) and results/sweep.csv;
any fcrbt-bench flag can be overridden on the command line.
"""

import sys
from pathlib import Path

from fcrbt.bench import emit_csv, run_bench
from fcrbt.claims import evaluate_claims, format_report
from fcrbt.cli import build_parser, print_progress, spec_from_args


def main(argv=None) -> int:
    parser = build_parser()
    parser.set_defaults(threads=(1, 2, 4, 8), out="results/sweep.csv")
    args = parser.parse_args(argv)
    spec = spec_from_args(args)
    results = run_bench(spec, progress=print_progress)
    if args.out == "-":
        emit_csv(results, sys.stdout)
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            emit_csv(results, fh)
        print(f"wrote {path}", file=sys.stderr)
    print(format_report(evaluate_claims(results)))
    return 1 if any(not r.ok for r in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
