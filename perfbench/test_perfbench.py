#!/usr/bin/env python3
"""Tests of the serving benchmark itself, at reduced size.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json through run.py with --small, untraced
and traced, and checks that the last output line carries every end-to-end
(untraced) or per-layer (traced) metric with its unit and that the run is
correct.  Then plants a wrong result and a flipped status into one response
and checks that the command fails.  Builds the program on first use, like
run.py.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace=0, plant=None, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--small"]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_reduced_runs_print_every_metric(self):
        for workload in self.bench["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc, result = run(workload["name"], trace)
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout[-3000:] + proc.stderr[-3000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"]
                                for m in self.bench[group]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if group == "end_to_end":
                            self.assertGreater(m["value"], 0, name)
                        # The human-readable lines name it too.
                        self.assertRegex(proc.stdout,
                                         rf"(?m)^{name}\s+\S+ {m['unit']}$")

    def test_planted_faults_fail_the_command(self):
        for workload in ("gpu_serving", "host_serving", "tenant_programs"):
            for plant in ("wrong_result", "flip_status"):
                with self.subTest(workload=workload, plant=plant):
                    proc, result = run(workload, 0, plant)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("error:", proc.stdout)


if __name__ == "__main__":
    unittest.main()
