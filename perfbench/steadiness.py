#!/usr/bin/env python3
"""Steadiness study for the NeuroDB benchmark.

    python3 perfbench/steadiness.py [--workload W ...] [--runs 10]
        [--first-seed 1] [--seconds S]

Runs each workload --runs times through perfbench/run.py, each run with the
next seed, and prints for every metric its median, quartiles and spread
(inter-quartile distance over the median, as statistics.quantiles(n=4)
gives them) against the metric's bound from BENCHMARK.json and against a
tenth of the median, plus the share of failed operations. Run from the
repository root. Exits non-zero if a run fails, reports "correct": false, or
a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"\n{workload}: {args.runs} runs, correct={correct}, "
              f"failed share {shares}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, 0, median))
            spread = (q3 - q1) / median if median else float("inf")
            bound = m["bound"]
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            if spread > 0.1:
                flag += "  over a tenth of the median"
            print(f"{m['name']:34} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:>6}"
                  f"{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
