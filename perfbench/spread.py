#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload read_mix --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed and prints, for each end-to-end
metric, the median, the interquartile range as a share of the median
(statistics.quantiles(values, n=4)) and that share over the metric's bound
in BENCHMARK.json (the benchmark is steady when it stays below 1/3).
The last row is not a metric: it is the run fingerprint's host probe (a
fixed integer loop's median time, mean of the start and end of each
run), which shows how fast the host ran each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    host = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        probe = json.loads(lines[1])["fingerprint"]["host_probe_ms"]
        host.append((probe["start_median"] + probe["end_median"]) / 2)
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: correct=%s failed=%d" %
                     (seed, result["correct"], result["failed"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d done" % seed, file=sys.stderr)
    print("%-26s %14s %8s %8s  values" % ("metric", "median", "iqr/med",
                                          "/bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        print("%-26s %14.6g %8.4f %8.3f  %s" % (
            name, med, share, share / bounds[name],
            " ".join("%.4g" % v for v in vals)))
    print("%-26s %14.6g %8s %8s  %s" % (
        "(host_probe_ms)", statistics.median(host), "", "",
        " ".join("%.4g" % v for v in host)))


if __name__ == "__main__":
    main()
