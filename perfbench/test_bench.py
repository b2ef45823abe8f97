#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark.

    python3 perfbench/test_bench.py

Runs every workload once at class S, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit and that every
pinned digest matches. Then shows the correctness gate failing a run whose
counters changed (a different L3 size), and the command refusing to run
without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [*SPEC["command"], "--seed", "1", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, proc, wanted):
        res = result(proc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            table = [l for l in proc.stdout.splitlines()
                     if l.split()[:2] == [m["name"], m["unit"]]]
            self.assertEqual(len(table), 1, m["name"])
        self.assertIn("failed_frac", proc.stdout)
        self.assertIn("env: nproc=", proc.stdout)

    def test_untraced_prints_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--smoke", "--trace", "0")
                self.check_metrics(proc, SPEC["end_to_end"])

    def test_traced_prints_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--smoke", "--trace", "1")
                self.check_metrics(proc, SPEC["per_layer"])
                # One untraced and one traced iteration, both digest-checked.
                self.assertEqual(result(proc)["attempted"] % 2, 0)

    def test_gate_fails_changed_counters(self):
        proc = bench("--workload", "cg_a16_par4", "--smoke", "--trace", "0",
                     "--l3-mib", "0")
        res = result(proc)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("!= pinned", proc.stderr)

    def test_refuses_without_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
