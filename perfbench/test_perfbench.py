#!/usr/bin/env python3
"""Self-tests of the host-performance benchmark, at a small scale.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They check that one seed gives identical simulated values and counts,
that another seed changes them (so the seed reaches the generated
inputs), and that a perturbed expected value raises the failed-operation
count.
"""

import json
import subprocess
import unittest

import run


def bench(workload, seed, expected=None):
    """Run one small, short benchmark; return (sim lines, counts, result)."""
    args = [str(DRIVER), "--dir", str(run.BENCH_DIR), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--scale", "1"]
    if expected:
        args += ["--expected", str(expected)]
    out = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    sim = [l for l in lines if l.startswith("sim ")]
    counts = [l for l in lines if l.startswith("ops_")]
    return sim, counts, json.loads(lines[-1])


class Determinism(unittest.TestCase):
    def check(self, workload):
        sim_a, counts_a, result_a = bench(workload, 5)
        sim_b, counts_b, _ = bench(workload, 5)
        sim_c, _, _ = bench(workload, 6)
        self.assertTrue(sim_a)
        self.assertTrue(result_a["correct"])
        self.assertEqual(sim_a, sim_b)
        self.assertEqual(counts_a, counts_b)
        self.assertNotEqual(sim_a, sim_c)

    def test_scenario_workload(self):
        self.check("cap_storm")

    def test_fuzz_workload(self):
        self.check("fuzz_swarm")


class ExpectedValues(unittest.TestCase):
    def perturbed(self, workload, edit):
        values = json.loads((run.BENCH_DIR / "expected.json").read_text())
        edit(values)
        path = run.build_dir() / "perturbed_expected.json"
        path.write_text(json.dumps(values))
        return bench(workload, 5, path)[2]

    def test_unperturbed_passes(self):
        result = bench("keyed_contended", 5)[2]
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_scenario_value_fails(self):
        def edit(v):
            v["scenarios"]["contended_4proc"]["protocols"]["kernel"]["e2e_p50_us"] *= 1.01
        result = self.perturbed("keyed_contended", edit)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_table1_value_fails(self):
        def edit(v):
            v["table1_avg_us"]["repeated5"] += 0.001
        result = self.perturbed("keyed_contended", edit)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1000)

    def test_fuzz_value_fails(self):
        def edit(v):
            v["fuzz"]["edges"] += 1
        result = self.perturbed("fuzz_swarm", edit)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    DRIVER = run.build()
    unittest.main()
