#!/usr/bin/env python3
"""NeuroDB benchmark entry point.

    python3 perfbench/run.py --workload explore|mutate|synapse \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds libneurodb from ../src together with
the harness (CMake, Release) into .bench_build/perfbench, gives the harness
an empty scratch directory under .bench_build, runs it and removes the
scratch directory again. The last line of stdout is the result: the
harness's verdict and metrics, with each metric's unit taken from
BENCHMARK.json, the only list of metric names. A per-layer metric the
harness does not set reads 0 (its layer does no such work in that workload);
an end-to-end metric it does not set, or a name BENCHMARK.json does not
declare, is an error. Build output goes to stderr. Exits non-zero, printing
no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("explore", "mutate", "synapse")


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, check=True)


def result_line(harness_line, trace):
    """The benchmark's result from the harness's last line, or None (with
    the reason on stderr) if its metrics do not match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(harness_line)
    values = result["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    missing = [m["name"] for m in declared
               if not trace and m["name"] not in values]
    if unknown or missing:
        print(f"perfbench: metrics not in BENCHMARK.json: {unknown}; "
              f"end-to-end metrics not reported: {missing}", file=sys.stderr)
        return None
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = subprocess.run(
            [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: harness exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    line = result_line(lines[-1], args.trace == "1") if lines else None
    if line is None:
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
