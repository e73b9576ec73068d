"""Arithmetic and checks shared by run.py and its tests.

Kept free of process handling so that test_harness.py can exercise it
directly: medians and quartiles, metric-name validity, the artifact
determinism check, and the result line the benchmark prints last.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values):
    """Median of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them (its default
    'exclusive' method)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median: how far apart repeated runs read."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def reference_seconds(host, reference_s):
    """A repetition's CPU seconds on the reference host: its CPU time
    scaled by reference_s over the mean CPU time of the calibration
    kernel run just before and after it. The kernel shares no code with
    the stack, so a change to the stack moves the result and a change in
    the host's speed does not."""
    calibration = host["calibration_cpu_s"]
    return host["cpu_s"] * reference_s / (sum(calibration) / len(calibration))


def valid_metric_name(name):
    """A metric or workload name: starts with a letter or digit, at most
    64 characters from [A-Za-z0-9_.-]."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def mismatched(digests):
    """Indices of the runs whose artifact digest differs from the first
    run's. Every run of a set must print a byte-identical artifact."""
    if not digests:
        return []
    return [i for i, d in enumerate(digests) if d != digests[0]]


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. [metrics] maps a name to
    (value, unit); every name must be valid and every value finite."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": out,
        }
    )


def span_self_times(spans):
    """Per span name: count, total seconds and self seconds. A span's self
    time is its duration minus the part of its interval that its child
    spans cover (children on other domains overlap, so the covered part
    is the union of their intervals)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    summary = {}
    for s in spans:
        t0, t1 = s["start_ns"], s["end_ns"]
        covered, reach = 0.0, t0
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], reach), min(c["end_ns"], t1)
            if b > a:
                covered += b - a
                reach = b
        row = summary.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - covered) / 1e9
    return summary
