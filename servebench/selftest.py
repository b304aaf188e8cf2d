#!/usr/bin/env python3
"""Fast self-test of the serving benchmark (tiny sizes, about 20 seconds).

    python3 servebench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at --tiny sizes
for one second each and asserts that:
  * the run exits 0, and its JSON result says correct with nothing failed;
  * the traced run's replay of the layer calls gave the mirror engine's
    answer for every request (replay_mismatches is 0);
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed with its unit, and nothing else is;
  * the traced run's span tree is well formed: every parent exists and
    precedes its child, children lie inside their parent's interval and
    share its request id, and end >= start;
  * without src/ beside it, the benchmark exits nonzero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".bench_build", "servebench-selftest")


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def run(workload, trace, spans=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if trace:
        counts = [line.split()[1] for line in lines
                  if line.startswith("replay_mismatches ")]
        if counts != ["0"]:
            fail("%s: replay_mismatches %s, expected 0" % (workload, counts))
    return json.loads(lines[-1])


def check_metrics(label, result, expected):
    if not result["correct"] or result["failed"] != 0:
        fail("%s: correctness checks failed" % label)
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % label)
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        fail("%s: metrics %s, expected %s" % (label, sorted(got), sorted(want)))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %s, expected %s"
                 % (label, name, got[name]["unit"], unit))
        if not isinstance(got[name]["value"], (int, float)):
            fail("%s: %s is not a number" % (label, name))


def check_spans(label, path):
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    if not rows:
        fail("%s: no spans recorded" % label)
    spans = {}
    for row in rows:
        sid, parent, request, name, start, end = row
        sid, parent, request = int(sid), int(parent), int(request)
        start, end = int(start), int(end)
        if end < start:
            fail("%s: span %d (%s) ends before it starts" % (label, sid, name))
        if parent >= 0:
            if parent not in spans:
                fail("%s: span %d has unknown parent %d" % (label, sid, parent))
            p = spans[parent]
            if start < p[1] or end > p[2] or request != p[0]:
                fail("%s: span %d (%s) lies outside parent %d"
                     % (label, sid, name, parent))
        elif name != "request":
            fail("%s: root span %d is %s" % (label, sid, name))
        spans[sid] = (request, start, end)
    layers = {row[3].split(".")[0] for row in rows}
    return layers


def check_no_sources():
    """A directory holding only BENCHMARK.json and servebench/ must fail."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "serve_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without sources the benchmark must fail and print nothing")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    traced_layers = set()
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(name + " trace=0", run(name, 0), bench["end_to_end"])
        spans = os.path.join(OUT, name + ".spans.tsv")
        check_metrics(name + " trace=1", run(name, 1, spans),
                      bench["per_layer"])
        traced_layers |= check_spans(name, spans)
        print("ok  %s" % name)
    missing = {"psql", "stats", "eval", "exec", "relation", "ivm", "engine",
               "server"} - traced_layers
    if missing:
        fail("no spans for layers %s" % sorted(missing))
    check_no_sources()
    print("ok  fails without sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
