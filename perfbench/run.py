#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload live_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and compiles the
library and the benchmark binary into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The binary's stdout is
passed through, and its last line is the result object. Each run's full
output is also kept under <build dir>/results/. Exits non-zero when the build fails, a correctness
check fails, or the result line is malformed.

--smoke runs every workload at a tiny size with tracing off and on, and
checks that each metric BENCHMARK.json names is emitted, finite and has a
unit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, path))


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, 1
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload}_seed{seed}_trace{trace}{'_smoke' if smoke else ''}.txt"
    with open(os.path.join(results, name), "w") as f:
        f.write(proc.stdout)
    return proc.stdout, proc.returncode


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout, code = run_once(binary, workload, 1, 1, trace, smoke=True)
            result = parse_result(stdout or "")
            if code != 0 or result is None:
                log(f"smoke {workload} trace={trace}: exit {code}, "
                    f"result {'ok' if result else 'missing'}")
                ok = False
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if (got is None or not isinstance(got.get("value"), (int, float))
                        or not math.isfinite(got["value"])
                        or got.get("unit") != m["unit"]):
                    log(f"smoke {workload} trace={trace}: bad metric "
                        f"{m['name']}: {got}")
                    ok = False
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                log(f"smoke {workload} trace={trace}: unlisted {sorted(extra)}")
                ok = False
            log(f"smoke {workload} trace={trace}: {len(metrics)} metrics")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.smoke:
        return smoke(binary)
    stdout, code = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if stdout is None:
        return 1
    if parse_result(stdout) is None:
        log("malformed result line")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
