#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload prune_har|infer_sqn|fleet_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only re-check the build; build output goes to stderr. A traced run also
writes its spans as a Chrome trace to <build dir>/traces/<workload>-<seed>.json.

The last line of stdout is the JSON result, with every metric
BENCHMARK.json declares for the mode: a traced run measures only the layers its workload
exercises, and the other per-layer metrics read 0. The exit status is 0
only when every output check passed and the metrics match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build; serialised by a lock in the build dir."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "nn", "graph.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1

    # Check the printed metrics against BENCHMARK.json. A traced run prints
    # only the layers its workload exercises; the others read 0.
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            fail(f"metric {name} [{metric['unit']}] is not in BENCHMARK.json")
    missing = [name for name in declared if name not in metrics]
    if missing and not args.trace:
        fail(f"end-to-end metrics not measured: {', '.join(missing)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
