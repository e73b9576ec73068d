"""Tests of the benchmark harness itself: the median and quartile
arithmetic, metric-name validity, the artifact determinism check and the
result line.

    python3 perfbench/test_harness.py

Prints nothing and exits 0 when every test passes.
"""

import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(harness.median([3, 1, 2]), 2)
        self.assertEqual(harness.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            harness.median([])

    def test_quartiles_match_statistics_quantiles(self):
        # the 'exclusive' method: positions (n+1)p, interpolated
        self.assertEqual(harness.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(harness.quartiles([5, 1, 3]), (1, 3, 5))
        self.assertEqual(harness.quartiles([7]), (7, 7, 7))

    def test_spread(self):
        self.assertAlmostEqual(harness.spread(list(range(1, 11))), 1.0)
        self.assertEqual(harness.spread([4.0] * 10), 0.0)
        # ten runs within 2% of each other stay well inside a 0.1 bound
        runs = [100, 101, 99, 100.5, 99.5, 102, 98, 100, 101, 99]
        self.assertLess(harness.spread(runs), 0.1 / 3)


class Calibration(unittest.TestCase):
    def test_host_speed_cancels(self):
        # the same work on a host running at two thirds of the speed
        fast = {"cpu_s": 2.0, "calibration_cpu_s": [0.1, 0.1]}
        slow = {"cpu_s": 3.0, "calibration_cpu_s": [0.14, 0.16]}
        self.assertAlmostEqual(harness.reference_seconds(fast, 0.2), 4.0)
        self.assertAlmostEqual(harness.reference_seconds(slow, 0.2), 4.0)


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ["ops_per_s", "sim.yield.ns_per_step", "a-b", "9lives", "x" * 64]:
            self.assertTrue(harness.valid_metric_name(name), name)

    def test_invalid(self):
        for name in ["", "_x", ".x", "a b", "ns/step", "x" * 65, "é", None]:
            self.assertFalse(harness.valid_metric_name(name), name)

    def test_every_reported_name_is_valid(self):
        for name in list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS) + list(run.SHAPE):
            self.assertTrue(harness.valid_metric_name(name), name)

    def test_benchmark_json_lists_what_run_reports(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("BENCHMARK.json is not beside this directory")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.SHAPE))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS
        )


CELLS, STEPS = run.SHAPE["soak_closed_loop"]


def soak_artifact(completed=10, unpredicted=0, stream_total=None, steps=STEPS // CELLS):
    """A soak artifact that adds up: a stream record per shard, the
    aggregate record, then the summary line."""
    stream = [
        {"schema": "tbwf-telemetry/v2", "shard": i, "ops": {"completed_total": completed}}
        for i in range(CELLS)
    ]
    if stream_total is not None:
        stream[0]["ops"]["completed_total"] = stream_total
    cells = [
        {"cell": f"c{i}", "holds": True, "as_expected": i >= unpredicted, "steps": steps, "completed": completed}
        for i in range(CELLS)
    ]
    total = completed * CELLS
    soak = {"schema": "tbwf-bench/v3-soak", "total_steps": steps * CELLS, "completed": total, "cells": cells}
    summary = {
        "schema": "tbwf-bench/v3",
        "workload": "soak_closed_loop",
        "cells": CELLS,
        "as_predicted": CELLS - unpredicted,
        "steps": steps * CELLS,
        "completed": total,
        "op_p50_steps": 3,
        "op_p99_steps": 20,
    }
    return "".join(json.dumps(x) + "\n" for x in stream + [soak, summary]).encode()


def rep(out, rc=0):
    host = {"wall_s": 1.0, "cpu_s": 1.0, "calibration_cpu_s": [0.2, 0.2], "peak_rss_kb": 1024}
    return {"rc": rc, "out": out, "host": host}


class Determinism(unittest.TestCase):
    def assess(self, *reps):
        return run.assess("soak_closed_loop", list(reps))

    def test_mismatched(self):
        self.assertEqual(harness.mismatched([]), [])
        self.assertEqual(harness.mismatched(["a", "a", "a"]), [])
        self.assertEqual(harness.mismatched(["a", "b", "a", "c"]), [1, 3])

    def test_identical_artifacts_pass(self):
        out = soak_artifact()
        correct, attempted, failed, good = self.assess(rep(out), rep(out), rep(out))
        self.assertEqual((correct, attempted, failed, len(good)), (True, 3 * CELLS, 0, 3))

    def test_digest_mismatch_fails_the_run(self):
        a, b = soak_artifact(), soak_artifact(completed=11)
        correct, attempted, failed, _ = self.assess(rep(a), rep(b), rep(a))
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)

    def test_crashed_repetition_fails_its_cells(self):
        out = soak_artifact()
        correct, _, failed, good = self.assess(rep(out), rep(b"", rc=2), rep(out))
        self.assertEqual((correct, failed, len(good)), (False, CELLS, 2))

    def test_artifact_that_does_not_add_up_fails(self):
        out, bad = soak_artifact(), soak_artifact(stream_total=9)
        self.assertTrue(run.consistent("soak_closed_loop", out))
        self.assertFalse(run.consistent("soak_closed_loop", bad))
        correct, _, failed, _ = self.assess(rep(out), rep(bad))
        self.assertEqual((correct, failed), (False, CELLS))

    def test_unpredicted_verdict_is_measured_not_failed(self):
        out = soak_artifact(unpredicted=1)
        correct, _, failed, good = self.assess(rep(out), rep(out))
        self.assertEqual((correct, failed), (True, 0))
        self.assertEqual(good[0]["summary"]["as_predicted"], CELLS - 1)

    def test_wrong_shape_is_incorrect(self):
        out = soak_artifact(steps=STEPS // CELLS - 1)
        correct, _, failed, _ = self.assess(rep(out), rep(out))
        self.assertEqual((correct, failed), (False, 0))


class ResultLine(unittest.TestCase):
    def test_keys_and_values(self):
        line = json.loads(harness.result_line(True, 3, 0, {"setup_s": (0.25, "s")}))
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(line["metrics"], {"setup_s": {"value": 0.25, "unit": "s"}})

    def test_rejects_bad_names_and_values(self):
        with self.assertRaises(ValueError):
            harness.result_line(True, 1, 0, {"bad name": (1.0, "s")})
        with self.assertRaises(ValueError):
            harness.result_line(True, 1, 0, {"x": (float("nan"), "s")})


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted(self):
        span = lambda i, p, name, a, b: {  # noqa: E731
            "id": i, "parent": p, "name": name, "start_ns": a, "end_ns": b
        }
        spans = [
            span(1, 0, "Pool.map", 0, 100e9),
            span(2, 1, "task", 10e9, 30e9),
            span(3, 1, "task", 20e9, 50e9),
        ]
        summary = harness.span_self_times(spans)
        self.assertAlmostEqual(summary["Pool.map"]["self_s"], 60.0)
        self.assertEqual(summary["task"]["count"], 2)
        self.assertAlmostEqual(summary["task"]["total_s"], 50.0)


if __name__ == "__main__":
    stream = io.StringIO()
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream, verbosity=2).run(suite)
    if not result.wasSuccessful():
        sys.stderr.write(stream.getvalue())
        sys.exit(1)
