#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload live_stream --runs 10 [--first-seed 1]

Runs the benchmark once per seed (tracing off) and prints, for each
end-to-end metric in BENCHMARK.json, the median and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound. A spread above a third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    worst = 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
        if m["name"] != "setup_s" and spread > m["bound"]:
            worst = 1
        print(f"{args.workload:14s} {m['name']:18s} median {median:12.6g} "
              f"spread {spread:7.4f} bound {m['bound']:.3f}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
