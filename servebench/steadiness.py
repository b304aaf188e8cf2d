#!/usr/bin/env python3
"""Measure the run-to-run spread of the serving benchmark.

    python3 servebench/steadiness.py --seeds 10 [--out FILE]

Runs servebench/run.py once per workload of BENCHMARK.json and seed 1 to
--seeds with --trace 0 and the run_seconds of BENCHMARK.json, then prints,
for every end-to-end metric of every workload, the median and quartiles
of its values (Python's statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the bound BENCHMARK.json sets. With --out the table is also written as
markdown. Exits nonzero when a run fails or reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect run: %s seed %d" % (workload, seed))
    return result["metrics"], wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in range(1, args.seeds + 1):
            metrics, wall = run_once(workload, seed, bench["run_seconds"])
            walls.append(wall)
            for name in values:
                values[name].append(metrics[name]["value"])
            print("%s seed %d: %.1f s wall: %s" % (
                workload, seed, wall,
                " ".join("%s=%.5g" % (k, v[-1]) for k, v in values.items())),
                file=sys.stderr)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append((workload, m["name"], m["unit"], med, q1, q3, spread,
                         m["bound"], statistics.median(walls)))
    header = ("| workload | metric | unit | median | Q1 | Q3 | spread | bound "
              "| median run wall s |")
    lines = [header, "|" + "---|" * 9]
    for r in rows:
        lines.append("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.1f |"
                     % r)
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
