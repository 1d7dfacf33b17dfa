"""Tests of the ledger's own arithmetic: percentiles and tail selection,
span self time, strict-JSON output, and the agreement between run.py and
BENCHMARK.json.

    python3 -m unittest discover -s ledger
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import run  # noqa: E402


def span(id_, parent, start, end, name="x.y"):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "lane": 0}


class Percentiles(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(M.tail(list(range(1, 101))), (90.0, 90, 100, 10))
        self.assertEqual(M.tail(list(range(1, 1001))), (99.0, 990, 1000, 10))
        self.assertEqual(M.tail(list(range(1, 10001))),
                         (99.9, 9990, 10000, 10))

    def test_tail_ignores_sample_order(self):
        values = list(range(1, 101))
        self.assertEqual(M.tail(values[::-1]), M.tail(values))

    def test_tail_falls_back_to_lower_percentiles(self):
        # 30 samples: p75 has only 7 beyond, p50 has 15.
        self.assertEqual(M.tail(list(range(1, 31))), (50.0, 15, 30, 15))
        # 20 samples: p50 has exactly 10 beyond.
        self.assertEqual(M.tail(list(range(1, 21))), (50.0, 10, 20, 10))

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(M.tail(list(range(1, 20))), (100.0, 19, 19, 0))
        self.assertEqual(M.tail([7.5]), (100.0, 7.5, 1, 0))


class SelfTime(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(M.covered_length([]), 0)
        self.assertEqual(M.covered_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(M.covered_length([(0, 10), (2, 3)]), 10)

    def test_nested_spans(self):
        own = M.self_times([span(1, 0, 0, 10), span(2, 1, 2, 5),
                            span(3, 2, 3, 4)])
        self.assertEqual(own, {1: 7, 2: 2, 3: 1})

    def test_overlapping_children_count_once(self):
        own = M.self_times([span(1, 0, 0, 10), span(2, 1, 1, 4),
                            span(3, 1, 3, 6), span(4, 1, 2, 4)])
        self.assertEqual(own[1], 5)  # children cover [1, 6)

    def test_children_clipped_to_the_parent(self):
        own = M.self_times([span(1, 0, 0, 10), span(2, 1, 8, 12),
                            span(3, 1, 20, 30)])
        self.assertEqual(own[1], 8)
        self.assertEqual(own[2], 4)

    def test_layer_table_sums_by_first_name_part(self):
        spans = [span(1, 0, 0, 10, "ping.sweep"),
                 span(2, 1, 0, 4, "net.build"),
                 span(3, 1, 4, 5, "net.probe"),
                 span(4, 1, 5, 6, "net.teardown")]
        self.assertEqual(M.layer_table(spans),
                         {"ping": (1, 10, 4), "net": (3, 6, 6)})

    def test_chrome_events_become_spans(self):
        doc = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "benchmark"}},
            {"name": "md.step.rl", "cat": "md", "ph": "X", "pid": 1,
             "tid": 0, "ts": 1500.0, "dur": 2000.0,
             "args": {"id": 4, "parent": 1, "op": 3}}]}
        self.assertEqual(M.spans_from_chrome(doc), [
            {"name": "md.step.rl", "id": 4, "parent": 1, "start": 1.5,
             "end": 3.5, "lane": 0}])

    def test_residual(self):
        self.assertAlmostEqual(M.residual(90, 100), 0.1)
        self.assertAlmostEqual(M.residual(110, 100), 0.1)
        self.assertEqual(M.residual(1, 0), math.inf)


class StrictJson(unittest.TestCase):
    def test_result_line_shape(self):
        line = M.result_line(True, 12, 0, {"setup_s": (0.5, "s"),
                                           "ops_per_s": (3, "1/s")})
        self.assertNotIn("\n", line)
        doc = json.loads(line)
        self.assertEqual(list(doc), ["correct", "attempted", "failed",
                                     "metrics"])
        self.assertEqual(doc["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})

    def test_full_precision_survives(self):
        v = 0.1 + 0.2
        doc = json.loads(M.result_line(True, 1, 0, {"x": (v, "ms")}))
        self.assertEqual(doc["metrics"]["x"]["value"], v)

    def test_rejects_what_strict_parsers_reject(self):
        with self.assertRaises(ValueError):
            M.strict_json({"x": math.nan})
        with self.assertRaises(ValueError):
            M.result_line(True, 1, 0, {"x": (math.inf, "ms")})
        with self.assertRaises(TypeError):
            M.result_line(True, 1, 0, {"x": ("1.0", "ms")})
        with self.assertRaises(TypeError):
            M.result_line(True, 1, 0, {"x": (True, "ms")})

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            M.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            M.result_line(True, 2, -1, {})
        with self.assertRaises(ValueError):
            M.result_line(True, True, 0, {})
        with self.assertRaises(TypeError):
            M.result_line(1, 1, 0, {})


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)
        self.assertEqual(set(run.ALIASES), set(names))

    def test_end_to_end_metrics_are_computed(self):
        raw = {"workload": "md-512", "unit": "step", "setup_s": [1, 2, 3],
               "op_ms": [10.0, 12.0], "ops": 4, "window_s": 2.0,
               "peak_rss_mb": 900.0}
        values, notes = run.end_to_end(raw)
        names = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(set(values), names)
        self.assertEqual(set(notes), names)
        self.assertEqual(values["setup_s"], 2)
        self.assertEqual(values["ops_per_s"], 2.0)
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", names)

    def test_metric_names_are_unique(self):
        names = [m["name"] for m in
                 self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
