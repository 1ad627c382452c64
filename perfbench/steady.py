#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and compare each metric's
spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --reps 10 --sets 2

Runs are sequential, one process at a time, each with its own seed; the
workload order alternates between repetitions. For each workload and metric
the report gives the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, the quartile distance as a share of the median, against
the metric's bound. With two sets it also gives how far the second median
moved from the first in the metric's worse direction. Exit code 0 when every
spread (set-up time excepted) and every drift is within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
READ_MOSTLY = ("single-caller", "two-callers")
BYPASS = ("V6.ops_per_sec", "FutureWork.ops_per_sec")
RUN_TIMEOUT = 240


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args()
    if args.reps < 2:
        parser.error("--reps must be at least 2 to give quartiles")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list; shares[set][workload] -> set of
    # failed/attempted shares seen
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    shares = [{w: set() for w in workloads} for _ in range(args.sets)]
    seed = args.seed
    for s in range(args.sets):
        for rep in range(args.reps):
            for w in workloads if rep % 2 == 0 else workloads[::-1]:
                result = run_once(w, seed, args.seconds, 0)
                seed += 1
                if not result["correct"]:
                    print(f"set {s + 1} {w} seed {seed - 1}: outputs incorrect")
                shares[s][w].add(result["failed"] / result["attempted"])
                for name in metrics:
                    values[s][w][name].append(result["metrics"][name]["value"])
                print(f"set {s + 1} rep {rep + 1} {w}: done", file=sys.stderr)

    steady = True
    for w in workloads:
        print(f"\n== {w} ({args.reps} runs x {args.seconds} s per set)")
        print(f"{'metric':<24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, spec in metrics.items():
            bound = spec["bound"]
            medians = []
            for s in range(args.sets):
                q1, med, q3, spr = spread(values[s][w][name])
                medians.append(med)
                if name == "setup_s":
                    verdict = "spread not bounded"
                elif spr > bound:
                    verdict = "OVER BOUND"
                    steady = False
                elif spr > bound / 3:
                    verdict = "within bound, above a third"
                else:
                    verdict = "steady"
                print(f"{name:<24} {s + 1:>3} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spr:7.3f} {bound:6.2f}  {verdict}")
                if w in READ_MOSTLY and name in BYPASS and spr > 0.10:
                    print(f"  note: {name.split('.')[0]} is not held within a "
                          f"tenth on {w} (spread {spr:.3f})")
            if args.sets == 2:
                sign = 1 if spec["better"] == "lower" else -1
                drift = sign * (medians[1] - medians[0]) / medians[0]
                ok = drift <= bound
                steady &= ok
                print(f"{'':<24} second median worse by {drift:+.3f} "
                      f"({'within' if ok else 'OUTSIDE'} bound)")
        flat = set().union(*(shares[s][w] for s in range(args.sets)))
        if len(flat) != 1:
            steady = False
        print(f"failed share: {sorted(flat)}")
    print("\nSTEADY" if steady else "\nNOT STEADY")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
