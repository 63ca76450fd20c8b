#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload fib|cholesky|epx|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench;
a traced run (--trace 1) writes its spans to
.bench_build/spans/<workload>-seed<N>.json. The last line of standard
output is the benchmark's JSON result. Exits nonzero, printing no result,
when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
SPANS = os.path.join(".bench_build", "spans")


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: %s failed\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 2
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1":
        os.makedirs(SPANS, exist_ok=True)
        name = "%s-seed%s.json" % (opts.get("--workload"), opts.get("--seed"))
        args += ["--spans", os.path.join(SPANS, name)]
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
