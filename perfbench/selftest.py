#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They build and run the benchmark on short grid-tiny runs (about a minute).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()


def bench_run(*args):
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"run.py {args} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    """Every metric the command prints is named in BENCHMARK.json with a unit."""

    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_benchmark(ROOT)

    def check_output(self, out, trace):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        expected = run.expected_metrics(self.bench, trace)
        self.assertEqual(set(out["metrics"]), set(expected))
        for name, m in out["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertTrue(m["unit"], name)
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertGreaterEqual(out["attempted"], 1)

    def test_untraced_run_prints_end_to_end_metrics(self):
        out = bench_run("--workload", "grid-tiny", "--seed", "3", "--seconds", "1", "--trace", "0")
        self.check_output(out, trace=0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        for name, m in out["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_per_layer_metrics(self):
        out = bench_run("--workload", "grid-tiny", "--seed", "3", "--seconds", "1", "--trace", "1")
        self.check_output(out, trace=1)
        self.assertEqual(out["metrics"]["error_rate"]["value"], 0)
        shares = sum(out["metrics"][f"montecarlo.{p}_share"]["value"]
                     for p in ("boot", "warmup", "flight"))
        self.assertAlmostEqual(shares, 1.0, delta=0.05)

    def test_unnamed_metric_is_refused(self):
        expected = run.expected_metrics(self.bench, 0)
        raw = {"metrics": {**{n: 1.0 for n in expected}, "unnamed": 1.0}}
        with self.assertRaises(ValueError):
            run.attach_units(raw, expected)
        raw = {"metrics": {n: 1.0 for n in list(expected)[1:]}}
        with self.assertRaises(ValueError):
            run.attach_units(raw, expected)


class Seeds(unittest.TestCase):
    def test_seed_changes_generated_inputs(self):
        for w in run.WORKLOADS:
            a = run.generate_spec(w, 1, 10, 0)
            self.assertEqual(a, run.generate_spec(w, 1, 10, 0), w)
            b = run.generate_spec(w, 2, 10, 0)
            self.assertNotEqual(a, b, w)
            for key in ("batch_seeds", "layout_seeds"):
                if a[key]:
                    self.assertNotEqual(a[key], b[key], (w, key))

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in run.load_benchmark(ROOT)["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))


class PlantedBadOutput(unittest.TestCase):
    def test_mismatched_document_digest_counts_in_error_rate(self):
        out = bench_run("--workload", "grid-tiny", "--seed", "3", "--seconds", "1", "--trace", "1",
                        "--plant-digest")
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertGreater(out["metrics"]["error_rate"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
