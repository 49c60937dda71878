#!/usr/bin/env python3
"""Self-tests of the sweep benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the driver through run.py (Release, into .bench_build/) and take
about two minutes on a 4-core machine.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["yield_cold", "yield_warm", "char_sweep", "yield_served"]
# Held-out seed: every correctness check must hold here as it does at the
# default seed 42.
HELD_OUT_SEED = 90210


def bench(*args):
    """Run the benchmark; return the parsed last line of its output."""
    out = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"run.py {args} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PlanDeterminism(unittest.TestCase):
    def test_same_seed_same_specs_and_hashes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = bench("--plan", "--workload", workload, "--seed", 42)
                self.assertEqual(first, bench("--plan", "--workload", workload, "--seed", 42))
                self.assertGreater(len(first["specs"][0]["job_hashes"]), 0)

    def test_other_seed_other_specs_and_hashes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = bench("--plan", "--workload", workload, "--seed", 42)
                b = bench("--plan", "--workload", workload, "--seed", HELD_OUT_SEED)
                for spec_a, spec_b in zip(a["specs"], b["specs"]):
                    self.assertNotEqual(spec_a["spec"], spec_b["spec"])
                    self.assertNotEqual(spec_a["spec_hash"], spec_b["spec_hash"])
                    self.assertNotEqual(spec_a["job_hashes"], spec_b["job_hashes"])


class Smoke(unittest.TestCase):
    def test_every_workload_end_to_end_and_traced(self):
        spec = declared()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = bench("--workload", workload, "--seed", 7, "--seconds", 0.2,
                                   "--trace", trace, "--smoke")
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({m["name"]: m["unit"] for m in metrics},
                                     {k: v["unit"] for k, v in result["metrics"].items()})


class HeldOutSeed(unittest.TestCase):
    def test_full_size_workloads_pass_every_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench("--workload", workload, "--seed", HELD_OUT_SEED, "--seconds", 1,
                               "--trace", "0")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_counts_pool_jobs_per_cell(self):
        # The runner batches up to 8 same-point dies per pool job; the
        # service's count is whatever its executor submits (1 per cell until
        # it runs on execute_plan).
        cold = bench("--workload", "yield_cold", "--seed", HELD_OUT_SEED, "--seconds", 1,
                     "--trace", "1")["metrics"]
        served = bench("--workload", "yield_served", "--seed", HELD_OUT_SEED, "--seconds", 1,
                       "--trace", "1")["metrics"]
        self.assertLess(cold["runtime.jobs_per_cell"]["value"], 0.5)
        self.assertGreater(served["runtime.jobs_per_cell"]["value"], 0.0)
        self.assertLessEqual(served["runtime.jobs_per_cell"]["value"], 1.0)
        self.assertEqual(served["service.cells_computed"]["value"], 2000)


if __name__ == "__main__":
    unittest.main(verbosity=2)
