#!/usr/bin/env python3
"""Builds and runs the end-to-end CoSKQ benchmark.

    python3 perfbench/run.py --workload <batch-gn|serve-skewed-rw|route-3shard>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The driver (perfbench/*.cc) is built from
the checkout's own sources into $CARGO_TARGET_DIR (default .bench_build),
then run; its standard output is passed through, so the last line is the
run's JSON result. Build output goes to standard error. Traces of --trace 1
runs are written to perfbench/out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "coskq_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    scratch = os.path.join(target, "perfbench-scratch")
    out = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--scratch", scratch, "--out", out]
    binary = os.path.join(build_dir, "coskq_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
