"""Tests of the benchmark's own logic. Run: python3 perfbench/test_report.py"""

import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import report  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(19))
        self.assertEqual(report.tail_percentile(20), 50.0)
        self.assertEqual(report.tail_percentile(99), 50.0)
        self.assertEqual(report.tail_percentile(100), 90.0)
        self.assertEqual(report.tail_percentile(999), 90.0)
        self.assertEqual(report.tail_percentile(1000), 99.0)
        self.assertEqual(report.tail_percentile(10000), 99.9)

    def test_linear_interpolation(self):
        self.assertEqual(report.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertAlmostEqual(report.percentile([1, 2, 3, 4, 5], 90), 4.6)
        self.assertEqual(report.percentile([7], 90), 7)

    def test_p90_needs_a_hundred_samples(self):
        with self.assertRaises(ValueError):
            report.reduce_series({"stat": "p90", "samples": list(range(99))})
        value = report.reduce_series({"stat": "p90", "samples": list(range(100))})
        self.assertAlmostEqual(value, 89.1)

    def test_blocked_p90_is_the_median_of_block_p90s(self):
        calm = [1.0] * 90 + [2.0] * 10          # block p90 = 1.1
        slow = [50.0] * 100                     # a slow spell
        samples = calm + slow + calm + calm + [1.0] * 50  # tail joins block 4
        # Block p90s: 1.1, 50, 1.1, 1.0.
        self.assertAlmostEqual(report.blocked_p90(samples), 1.1)
        self.assertAlmostEqual(report.percentile(samples, 90), 50.0)
        self.assertAlmostEqual(report.blocked_p90(calm), 1.1)

    def test_median(self):
        self.assertEqual(report.reduce_series({"stat": "median", "samples": [3, 1, 2, 10]}), 2.5)


class SelfTime(unittest.TestCase):
    def span(self, sid, parent, name, ts, dur):
        return {"id": sid, "parent": parent, "name": name, "ts": ts, "dur": dur}

    def test_children_subtracted_once_and_clipped(self):
        spans = [
            self.span(1, 0, "root", 0, 100_000),
            # Two overlapping children (e.g. on two threads): 10..60 ms.
            self.span(2, 1, "a", 10_000, 30_000),
            self.span(3, 1, "b", 30_000, 30_000),
            self.span(4, 2, "leaf", 15_000, 5_000),
            # A child outliving its parent is clipped to the parent.
            self.span(5, 0, "short", 200_000, 10_000),
            self.span(6, 5, "late", 205_000, 20_000),
        ]
        t = report.self_times(spans)
        self.assertAlmostEqual(t["root"]["self_ms"], 50.0)
        self.assertAlmostEqual(t["root"]["total_ms"], 100.0)
        self.assertAlmostEqual(t["a"]["self_ms"], 25.0)
        self.assertAlmostEqual(t["b"]["self_ms"], 30.0)
        self.assertAlmostEqual(t["leaf"]["self_ms"], 5.0)
        self.assertAlmostEqual(t["short"]["self_ms"], 5.0)
        self.assertAlmostEqual(t["late"]["self_ms"], 20.0)

    def test_same_name_aggregates(self):
        spans = [self.span(1, 0, "x", 0, 1_000), self.span(2, 0, "x", 5_000, 2_000)]
        row = report.self_times(spans)["x"]
        self.assertEqual(row["count"], 2)
        self.assertAlmostEqual(row["self_ms"], 3.0)


class MetricNames(unittest.TestCase):
    declared = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def test_exact_match_passes(self):
        report.check_names({"a_ms": {"value": 1.0, "unit": "ms"},
                            "b": {"value": 2, "unit": "count"}}, self.declared)

    def test_missing_extra_or_wrong_unit_fails(self):
        with self.assertRaises(ValueError):
            report.check_names({"a_ms": {"value": 1.0, "unit": "ms"}}, self.declared)
        with self.assertRaises(ValueError):
            report.check_names({"a_ms": {"value": 1.0, "unit": "ms"},
                                "b": {"value": 2, "unit": "count"},
                                "c": {"value": 3, "unit": "ms"}}, self.declared)
        with self.assertRaises(ValueError):
            report.check_names({"a_ms": {"value": 1.0, "unit": "s"},
                                "b": {"value": 2, "unit": "count"}}, self.declared)


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json keeps exactly the keys, counts and name formats allowed."""

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_shape(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in s["end_to_end"])}])

    def test_names_and_units(self):
        entries = self.spec["workloads"] + self.spec["end_to_end"] + self.spec["per_layer"]
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))


if __name__ == "__main__":
    unittest.main()
