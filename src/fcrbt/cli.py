"""Command line front end for the throughput sweep."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .bench import BenchResult, emit_csv, run_bench
from .workload import WorkloadSpec


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _str_list(text: str) -> Tuple[str, ...]:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    defaults = WorkloadSpec()
    p = argparse.ArgumentParser(
        prog="fcrbt-bench",
        description=(
            "Sweep the concurrent ordered-map variants over a thread-count "
            "grid and emit one CSV row per (variant, threads) cell."
        ),
    )
    p.add_argument("--variants", type=_str_list, default=defaults.variants,
                   metavar="V1,V2,...", help="comma-separated variant ids")
    p.add_argument("--threads", type=_int_list, default=defaults.thread_counts,
                   metavar="N,N,...", help="comma-separated thread counts")
    p.add_argument("--ops", type=int, default=defaults.total_ops,
                   help="total operations per cell (split across threads)")
    p.add_argument("--insert-pct", type=int, default=defaults.insert_pct)
    p.add_argument("--delete-pct", type=int, default=defaults.delete_pct)
    p.add_argument("--get-pct", type=int, default=defaults.get_pct)
    p.add_argument("--key-min", type=int, default=defaults.key_min)
    p.add_argument("--key-max", type=int, default=defaults.key_max)
    p.add_argument("--max-nodes", type=int, default=defaults.max_nodes,
                   help="physical node budget of every map")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", default="-", metavar="PATH",
                   help="CSV destination ('-' for stdout)")
    p.add_argument("--warmup", type=_bool, default=defaults.warmup,
                   metavar="BOOL", help="pre-populate half the node budget")
    p.add_argument("--watchdog-secs", type=float, default=defaults.watchdog_secs,
                   help="per-cell deadline before a cell is declared wedged")
    return p


def spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        insert_pct=args.insert_pct,
        delete_pct=args.delete_pct,
        get_pct=args.get_pct,
        key_min=args.key_min,
        key_max=args.key_max,
        max_nodes=args.max_nodes,
        total_ops=args.ops,
        thread_counts=args.threads,
        seed=args.seed,
        variants=args.variants,
        warmup=args.warmup,
        watchdog_secs=args.watchdog_secs,
    )


def print_progress(res: BenchResult) -> None:
    """One stderr line per finished cell: its rate, or why it failed."""
    if res.ok:
        line = f"{res.variant} x{res.threads}: {res.ops_per_sec:,.0f} ops/s"
    else:
        line = f"{res.variant} x{res.threads}: FAILED ({res.error})"
    print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        print(f"invalid workload: {exc}", file=sys.stderr)
        return 2

    out_fh = None
    if args.out != "-":
        try:  # fail before the sweep, not after ten minutes of it
            out_fh = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2

    try:
        results = run_bench(spec, progress=print_progress)
        emit_csv(results, out_fh if out_fh is not None else sys.stdout)
    finally:
        if out_fh is not None:
            out_fh.close()
    failed = [r for r in results if not r.ok]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
