#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/CMakeLists.txt, Release, from the
sources under src/) into .bench_build/ of the checkout, then runs it from
the checkout root. The program's standard output passes through unchanged;
its last line is the result object. Build output goes to standard error.
Exits non-zero, printing no result, when the sources are missing or the
build or run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no ibseg sources under %s/src\n" % ROOT)
        return None
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench_driver")
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out_dir, "-j", jobs],
                           stdout=sys.stderr) != 0:
            return None
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (smoke tests)")
    args = parser.parse_args()

    binary = build(BUILD_DIR)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.join(ROOT, ".bench_out"),
           "--scale", str(args.scale)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace"))
        sys.stderr.write("perfbench: driver exited with %d\n" % proc.returncode)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
