"""Tests of perfbench/run.py's result check.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def result(metrics, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


class ValidateTest(unittest.TestCase):
    EXPECTED = [("latency_p50_ms", "ms"), ("setup_s", "s")]

    def good(self):
        return {"latency_p50_ms": {"value": 1.25, "unit": "ms"},
                "setup_s": {"value": 0.8, "unit": "s"}}

    def test_complete_result_passes(self):
        self.assertEqual(run.validate(result(self.good()), self.EXPECTED), [])

    def test_missing_metric_is_reported(self):
        m = self.good()
        del m["setup_s"]
        self.assertTrue(any("setup_s" in p for p in
                            run.validate(result(m), self.EXPECTED)))

    def test_wrong_unit_is_reported(self):
        m = self.good()
        m["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(result(m), self.EXPECTED))

    def test_extra_metric_is_reported(self):
        m = self.good()
        m["other"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.validate(result(m), self.EXPECTED))

    def test_non_finite_value_is_reported(self):
        m = self.good()
        m["setup_s"]["value"] = float("nan")
        self.assertTrue(run.validate(result(m), self.EXPECTED))

    def test_counts_must_be_whole_and_attempted_positive(self):
        self.assertTrue(run.validate(result(self.good(), attempted=0),
                                     self.EXPECTED))
        self.assertTrue(run.validate(result(self.good(), failed=1.5),
                                     self.EXPECTED))

    def test_extra_top_level_key_is_reported(self):
        r = result(self.good())
        r["note"] = "x"
        self.assertTrue(run.validate(r, self.EXPECTED))


class CompleteTest(unittest.TestCase):
    EXPECTED = [("core.select_ms.p50", "ms"), ("net.recv_pauses", "count")]

    def test_unreported_layers_read_zero_with_their_unit(self):
        r = result({"net.recv_pauses": {"value": 3, "unit": "count"}})
        run.complete(r, self.EXPECTED)
        self.assertEqual(r["metrics"]["core.select_ms.p50"],
                         {"value": 0, "unit": "ms"})
        self.assertEqual(r["metrics"]["net.recv_pauses"]["value"], 3)
        self.assertEqual(run.validate(r, self.EXPECTED), [])

    def test_a_misnamed_layer_is_still_refused(self):
        r = result({"net.recv_pause": {"value": 3, "unit": "count"}})
        run.complete(r, self.EXPECTED)
        self.assertTrue(any("net.recv_pause" in p
                            for p in run.validate(r, self.EXPECTED)))

    def test_null_value_is_refused(self):
        r = result({"core.select_ms.p50": {"value": None, "unit": "ms"}})
        run.complete(r, self.EXPECTED)
        self.assertTrue(run.validate(r, self.EXPECTED))


class BenchmarkSpecTest(unittest.TestCase):
    def test_every_metric_has_a_unit_and_setup_is_bounded(self):
        e2e = run.expected_metrics(0)
        layer = run.expected_metrics(1)
        self.assertIn(("setup_s", "s"), e2e)
        for name, unit in e2e + layer:
            self.assertTrue(name and unit)
        names = [n for n, _ in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["cell_plane", "kpi_ingest"])


if __name__ == "__main__":
    unittest.main()
