#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build palb_perf like run.py does, then run every workload at the tiny
size (plus plan_fleet once at full size, about 15 s) and check the report
contract, the workload claims and the output checks.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("plan_paper", "plan_fleet", "serve_steady")


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=600)


def last_json(result):
    return json.loads(result.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ReportContract(unittest.TestCase):
    def test_every_declared_metric_is_reported_with_its_unit(self):
        s = spec()
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = run("--workload", workload, "--seed", "3",
                            "--seconds", "0.4", "--trace", str(trace),
                            "--size", "tiny")
                    self.assertEqual(r.returncode, 0, r.stderr[-3000:])
                    out = last_json(r)
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    wanted = s["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(out["metrics"]),
                                     {m["name"] for m in wanted})
                    for m in wanted:
                        got = out["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        if not trace:
                            self.assertGreater(got["value"], 0, m["name"])


class WorkloadClaims(unittest.TestCase):
    def layers(self, workload, size="tiny", seconds="0.4"):
        r = run("--workload", workload, "--seed", "5", "--seconds", seconds,
                "--trace", "1", "--size", size)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        return {k: v["value"] for k, v in last_json(r)["metrics"].items()}

    def test_plan_paper_is_pruning_bound(self):
        m = self.layers("plan_paper")
        self.assertGreaterEqual(m["core.prune_ratio"], 0.9)
        self.assertEqual(m["solver.dw_subproblem_solves"], 0)
        self.assertEqual(m["check.violations"], 0)
        # Every publish is counted, and each one is compiled once.
        self.assertGreater(m["serve.publishes"], 0)
        self.assertEqual(m["serve.rebuilds"], m["serve.publishes"])

    def test_plan_fleet_is_solver_bound(self):
        m = self.layers("plan_fleet", size="full", seconds="0.2")
        self.assertEqual(m["core.profiles_pruned"], 0)
        self.assertGreater(m["solver.dw_subproblem_solves"], 0)
        self.assertGreater(m["serve.publishes"], 0)

    def test_serve_steady_never_rebuilds_while_timed(self):
        m = self.layers("serve_steady")
        self.assertEqual(m["serve.rebuilds"], 0)
        self.assertEqual(m["serve.stalled_routes"], 0)



class OutputChecks(unittest.TestCase):
    def test_corrupted_plan_fixture_fails_the_run(self):
        fixture = os.path.join(ROOT, "tools", "fixtures", "plan_deadline.json")
        r = run("--workload", "plan_paper", "--seed", "1", "--seconds", "0.2",
                "--size", "tiny", "--inject-plan", fixture)
        self.assertEqual(r.returncode, 1, r.stderr[-3000:])
        out = last_json(r)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertIn("violates the constraint system", r.stderr)

    def test_without_the_sources_the_run_fails_without_a_result(self):
        iso = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(BENCH, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            r = run("--workload", "plan_paper", "--seed", "1", "--seconds",
                    "1", "--trace", "0", root=iso)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
