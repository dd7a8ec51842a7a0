#!/usr/bin/env python3
"""Compare one or two sets of benchmark runs with the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py RUNS_A [RUNS_B]

Each RUNS directory holds one file per run, named <workload>.<anything>
(for example build-deep.3.out), whose last line is the result line that
run.py prints. For every (workload, metric) pair the script prints each
set's median, first and third quartile, and spread: the interquartile
range over the median, with the quartiles of statistics.quantiles(n=4).

End-to-end metrics are checked against their bound. Each set's spread must
be within the bound (setup_s excepted), and B's median must not be worse
than A's by more than the bound. Per-layer metrics, from traced runs, are
listed without checks. Exits 1 when a check fails or a run reported
incorrect output.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: [result, ...]} from the run files in `directory`."""
    runs = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().split("\n")
        runs[name.split(".")[0]].append(json.loads(lines[-1]))
    return runs


def summarize(values):
    """(median, q1, q3, spread) of a list of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    metric_names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    sets = [load_runs(d) for d in sys.argv[1:]]

    failures = 0
    for s, runs in zip("AB", sets):
        for workload, results in runs.items():
            bad = sum(1 for r in results if not r["correct"] or r["failed"])
            if bad:
                print(f"FAIL {s} {workload}: {bad} runs with incorrect output")
                failures += 1

    header = f"{'workload':14} {'metric':28}"
    for s in "AB"[:len(sets)]:
        header += f" | {s + ' median':>12} {'q1':>11} {'q3':>11} {'spread':>7}"
    print(header + " | check")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in metric_names:
            columns = []
            for runs in sets:
                values = [r["metrics"][metric]["value"]
                          for r in runs.get(workload, [])
                          if metric in r["metrics"]]
                columns.append(summarize(values) if len(values) >= 2 else None)
            if all(c is None for c in columns):
                continue
            row = f"{workload:14} {metric:28}"
            for c in columns:
                row += (" | " + " " * 44 if c is None else
                        f" | {c[0]:12.6g} {c[1]:11.5g} {c[2]:11.5g} {c[3]:7.4f}")
            verdict = ""
            if metric in bounds and None not in columns:
                bound = bounds[metric]["bound"]
                problems = []
                if metric != "setup_s":
                    problems += [f"spread {s}" for s, c in zip("AB", columns)
                                 if c[3] > bound]
                if len(columns) == 2:
                    a, b = columns[0][0], columns[1][0]
                    lower = bounds[metric]["better"] == "lower"
                    worse = ((b - a) if lower else (a - b)) / abs(a)
                    verdict = f" B vs A {worse:+.4f}"
                    if worse > bound:
                        problems.append("median")
                failures += bool(problems)
                verdict = (("FAIL " + ",".join(problems)) if problems
                           else "ok") + f" (bound {bound})" + verdict
            print(row + " | " + verdict)
    print(f"\n{failures} check(s) failed" if failures else "\nall checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
