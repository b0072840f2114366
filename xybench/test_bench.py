#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny mode of each workload.

Run from the repository root:

    python3 xybench/test_bench.py

They build the benchmark through run.py (like a real run) and check that
every metric it prints is declared in BENCHMARK.json with its unit, that
each workload reports every declared metric, that outputs verify, that a
deliberately corrupted output is caught, that the deterministic counts
repeat exactly, and that BENCHMARK.json keeps the benchmark contract.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(HERE, "run.py")
WORKLOADS = ["crawl", "history"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics that are counts of work, not timings: at one thread
# they must repeat exactly for a given seed.
DETERMINISTIC = [
    "core.matched_frac", "core.queue_pops_per_node",
    "core.candidates_scanned_per_node", "version.syncs_per_doc",
    "version.bytes_written_per_doc", "version.renames_per_doc",
    "version.checkout.applications", "monitor.alerts_per_doc",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, seed=7):
    """Runs one tiny benchmark invocation; returns (exit code, result)."""
    done = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


class BenchmarkSpecTest(unittest.TestCase):
    def test_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = []
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    def check_declared(self, result, declared):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared),
                         "printed metrics must be exactly the declared ones")
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_reports_every_metric(self):
        spec = load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.check_declared(result, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_negative_control_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--corrupt")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 1, seed=3)
                _, second = run(workload, 1, seed=3)
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        """With only BENCHMARK.json and the benchmark's own files, the
        build cannot find the library: non-zero exit, no result line."""
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "xybench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "out"))
            done = subprocess.run(
                [sys.executable, "xybench/run.py", "--workload", "crawl",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
