#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
at a tiny size (--scale) in both modes and checks that the result line
names every metric of BENCHMARK.json with its unit, that the same seed
generates the same inputs, and that the command fails cleanly in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    cmd = load_bench()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class ContractTest(unittest.TestCase):
    def test_benchmark_json(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertTrue(len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"] + b["end_to_end"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertTrue(len(json.dumps(b)) <= 64 * 1024)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_every_workload_both_modes(self):
        b = load_bench()
        for name in [w["name"] for w in b["workloads"]]:
            with self.subTest(workload=name, trace=0):
                r = self.check_result(run(name, 3, 0), b["end_to_end"])
                for m in b["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=name, trace=1):
                proc = run(name, 3, 1)
                self.check_result(proc, b["per_layer"])
                moves = json.loads(proc.stdout.strip().splitlines()[-2])
                self.assertEqual(set(moves["per_layer_moves"]),
                                 {m["name"] for m in b["per_layer"]})

    def test_seed_determines_inputs(self):
        def inputs(seed):
            proc = run("read_mix", seed, 0)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            info = json.loads(proc.stdout.splitlines()[0])
            return info["inputs_digest"], info["seeds"]
        self.assertEqual(inputs(5), inputs(5))
        self.assertNotEqual(inputs(5)[0], inputs(6)[0])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in load_bench()["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("read_mix", 1, 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
