#!/usr/bin/env python3
"""Build and run the prefdb serving benchmark.

    python3 servebench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
benchmark package (servebench/CMakeLists.txt, which compiles prefdb from
src/) under $CARGO_TARGET_DIR/servebench, or .bench_build/servebench when
that variable is unset; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Extra arguments (--tiny, --spans FILE) are passed through to the benchmark binary;
a traced run (--trace 1) without --spans writes its spans to
<build dir>/spans-<workload>-<seed>.tsv.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "prefdb.h")):
        sys.exit("servebench: no prefdb sources under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "servebench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("servebench: build failed: %s" % err)
    args = sys.argv[1:]
    if "--spans" not in args and _value(args, "--trace") == "1":
        args += ["--spans", os.path.join(
            build_dir(), "spans-%s-%s.tsv" % (_value(args, "--workload"),
                                              _value(args, "--seed")))]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


def _value(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else ""


if __name__ == "__main__":
    sys.exit(main())
