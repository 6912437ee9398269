#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

    python3 perfbench/spread.py [--seeds 101-110] [--workload NAME ...]

Runs perfbench/run.py once per seed on each workload with the run length of
BENCHMARK.json, then prints, per end-to-end metric, the median over the
seeds and the spread (inter-quartile range over the median, as
statistics.quantiles(values, n=4) gives the quartiles) next to the metric's
bound. Run from the root of a checkout; it takes about 30 s per run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(first, last + 1):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: {time.time() - start:.0f} s, "
                  f"correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
        if len(runs) < 2:
            continue
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"  {metric['name']:16s} median {median:12.6g} {metric['unit']:6s}"
                  f" spread {(q[2] - q[0]) / median:.3f} (bound {metric['bound']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
