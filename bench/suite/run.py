#!/usr/bin/env python3
"""Run one workload of the DNND benchmark (see bench/suite/README.md).

    python3 bench/suite/run.py --workload build-deep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. On first use it builds dnnd_suite from the
checkout's sources into .bench_build/suite (up to a few minutes), then runs
the workload, checks that it reported every metric BENCHMARK.json declares
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1), and prints as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A traced run also writes a Chrome trace and the program's telemetry to
.bench_build/trace/<workload>-seed<seed>/. Exits non-zero without a result
when the build or the run fails or a declared metric is missing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(out_dir):
    """Configures (once) and builds dnnd_suite; returns the binary path."""
    build_dir = os.path.join(out_dir, "suite")
    os.makedirs(build_dir, exist_ok=True)
    stamp = os.path.join(build_dir, "configured.stamp")
    steps = [] if os.path.exists(stamp) else [
        ["cmake", "-S", SUITE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]]
    steps.append(["cmake", "--build", build_dir, "--target", "dnnd_suite",
                  "-j", "4"])
    # Concurrent first runs must not build into one tree at the same time.
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (subprocess.SubprocessError, OSError) as e:
                fail(f"build failed: {e}")
            if step[1] == "-S":
                open(stamp, "w").close()
    return os.path.join(build_dir, "dnnd_suite")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and minimum operation counts; "
                             "exit 1 if an output check fails")
    parser.add_argument("--binary", help="use this dnnd_suite, do not build")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build"),
                        help="build, scratch and trace directory")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    binary = args.binary or build(args.out)
    tmp_dir = os.path.join(args.out, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmp", tmp_dir]
    if args.trace:
        cmd += ["--trace", os.path.join(
            args.out, "trace", f"{args.workload}-seed{args.seed}")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"run failed: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"dnnd_suite exited {proc.returncode} without a result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{args.workload} did not report {m['name']} [{m['unit']}]")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if result["ops"] < 1:
        fail("no operation was attempted")
    correct = bool(result["correct"]) and result["ops_failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }))
    if args.smoke and not correct:
        sys.exit(1)  # the smoke test fails on any failed output check


if __name__ == "__main__":
    main()
