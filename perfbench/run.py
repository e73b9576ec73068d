#!/usr/bin/env python3
"""tbwf-bench/v3: end-to-end and per-layer benchmark of the TBWF stack.

Run from the repository root:

    python3 perfbench/run.py --workload world_open_loop --seed 1 --seconds 30 --trace 0

It builds perfbench/bench3.exe with dune, then:

--trace 0  measures the end-to-end metrics with tracing off. Set-up time
           is the median wall time of several processes that run the
           workload's entry point with one cell at the minimum horizon.
           Then it runs the full workload (at one domain, or at every
           core for POOLED workloads), each repetition in its own process,
           until --seconds have passed (at least three times), and
           reports medians over the repetitions. Every repetition must
           print a byte-identical artifact.
--trace 1  runs the traced per-layer pass (bench3 trace) once and
           reports the per-layer metrics. Spans and a self-time summary
           go to .perfbench/ in the working directory.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 when that line was
printed, 1 when bench3.exe could not be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

EXE = os.path.join("_build", "default", "perfbench", "bench3.exe")
OUT_DIR = ".perfbench"
SETUP_RUNS = 41
MIN_REPS = 3
MAX_REPS = 20
# Throughput is reported in reference CPU seconds: a repetition's CPU
# time, rescaled by how long bench3's calibration kernel took around it
# against this many CPU seconds.
CALIBRATION_REF_S = 0.2

# Cells, and simulated steps of one full run, per workload: the
# artifact's summary must report exactly these.
SHAPE = {
    "world_open_loop": (512, 512 * 8_000),
    "soak_closed_loop": (30, 30 * 200_000),
    "mp_matrix": (12, 12 * 384_000),
}
# Workloads whose end-to-end runs use every core. The others run at one
# domain: they allocate fast enough that a second domain spins at their
# frequent stop-the-world minor collections whenever the other one waits
# for a core on a shared host, so their CPU time would measure the
# neighbours. The traced pass measures every workload at both sizes.
POOLED = {"mp_matrix"}

# Verdicts are measured, not gated: verdict_match_share reports the share
# of cells whose degradation verdict matches its prediction. World shards
# are all predicted to hold, and a share of them fails today.

END_TO_END_UNITS = {
    "ops_per_ref_s": "1/s",
    "steps_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verdict_match_share": "share",
    "op_p50_steps": "steps",
    "op_p99_steps": "steps",
    "ops_per_kstep": "ops/kstep",
}

PER_LAYER_UNITS = {
    "sim.yield.ns_per_step": "ns/step",
    "sim.yield.words_per_step": "words/step",
    "registers.atomic.ns_per_step": "ns/step",
    "registers.atomic.words_per_step": "words/step",
    "registers.abortable.ns_per_step": "ns/step",
    "registers.abortable.words_per_step": "words/step",
    "objects.qa.ns_per_step": "ns/step",
    "objects.qa.words_per_step": "words/step",
    "objects.qa.aborts_per_op": "aborts/op",
    "core.tbwf.ns_per_step": "ns/step",
    "core.tbwf.ns_per_op": "ns/op",
    "core.tbwf.words_per_step": "words/step",
    "compiled.tbwf.ns_per_step": "ns/step",
    "compiled.tbwf.words_per_step": "words/step",
    "compiled.ref_over_compiled": "ratio",
    "net.tbwf.ns_per_step": "ns/step",
    "net.tbwf.words_per_step": "words/step",
    "net.msgs_per_op": "msgs/op",
    "net.dropped_share": "share",
    "telemetry.collector.ns_per_step": "ns/step",
    "telemetry.collector.words_per_step": "words/step",
    "telemetry.live_cost_ratio": "ratio",
    "telemetry.stream.ns_per_step": "ns/step",
    "telemetry.merge.us_per_shard": "us/shard",
    "check.online.ns_per_step": "ns/step",
    "system.build.us_per_cell": "us/cell",
    "world.shard.ms_p50": "ms",
    "world.outside_shards_share": "share",
    "parallel.speedup": "x",
    "parallel.serial_fraction": "share",
    "steps.app_share": "share",
    "steps.omega_share": "share",
    "steps.monitor_share": "share",
    "steps.idle_share": "share",
    "omega.epochs_per_kstep": "epochs/kstep",
    "trace.overhead_ratio": "ratio",
    "wall.ops_per_s": "1/s",
}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/bench3.exe"],
            capture_output=True,
            text=True,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stderr[-4000:])
        fail("build failed")


def domains():
    """The pool size: every core this process may run on, at most 8."""
    return max(1, min(8, len(os.sched_getaffinity(0))))


def bench3(mode, workload, seed, jobs, extra=()):
    """Run bench3 once and wait for it. Returns (exit code, stdout bytes,
    the JSON of its last stderr line or None, wall seconds)."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), "--jobs", str(jobs)]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd + list(extra), capture_output=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {' '.join(cmd)} timed out\n")
        return -1, b"", None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    host = None
    lines = p.stderr.decode(errors="replace").strip().splitlines()
    if p.returncode == 0 and lines:
        try:
            host = json.loads(lines[-1])
        except ValueError:
            host = None
    if p.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
    return p.returncode, p.stdout, host, wall


def summary_of(artifact):
    """The tbwf-bench/v3 record on the artifact's last line, or None."""
    try:
        record = json.loads(artifact.decode().rstrip("\n").rsplit("\n", 1)[-1])
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) and record.get("schema") == "tbwf-bench/v3" else None


def consistent(workload, artifact):
    """Cross-check the artifact's own aggregates against its summary
    record: per-system or per-cell counts must add up to the totals the
    metrics are computed from."""
    try:
        return _adds_up(workload, [json.loads(line) for line in artifact.decode().splitlines()])
    except (ValueError, UnicodeDecodeError, KeyError, TypeError, IndexError):
        return False


def _adds_up(workload, lines):
    s = lines[-1]
    if workload == "world_open_loop":
        world = lines[-2]
        systems = world["systems"]
        return (
            world["schema"] == "tbwf-world/v1"
            and world["shards"] == s["cells"]
            and world["steps"]["total"] == s["steps"]
            and world["ops"]["completed"] == s["completed"]
            and sum(x["completed"] for x in systems) == s["completed"]
            and world["verdict_holds"] == s["as_predicted"]
            and sum(x["verdict_holds"] for x in systems) == s["as_predicted"]
            and world["app_tail"]["p50"] == s["op_p50_steps"]
            and world["app_tail"]["p99"] == s["op_p99_steps"]
        )
    if workload == "soak_closed_loop":
        soak, stream = lines[-2], lines[:-2]
        cells = soak["cells"]
        # each shard's last stream record carries its final totals
        last = {}
        for record in stream:
            last[record["shard"]] = record["ops"]["completed_total"]
        return (
            soak["schema"] == "tbwf-bench/v3-soak"
            and len(cells) == s["cells"] == len(last)
            and sum(c["completed"] for c in cells) == s["completed"] == soak["completed"]
            and sum(last.values()) == s["completed"]
            and sum(c["steps"] for c in cells) == s["steps"] == soak["total_steps"]
            and sum(c["as_expected"] for c in cells) == s["as_predicted"]
        )
    cells = lines[:-2]
    return (
        len(cells) == s["cells"]
        and sum(c["completed"] for c in cells) == s["completed"]
        and sum(c["steps"] for c in cells) == s["steps"]
        and sum(c["as_expected"] for c in cells) == s["as_predicted"]
        and lines[-2]["schema"] == "tbwf-telemetry/v1"
    )


def provenance(workload, seed, jobs):
    sha = "unknown"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {
        "bench": "tbwf-bench/v3",
        "workload": workload,
        "seed": seed,
        "domains": jobs,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def write_report(name, report):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)


def assess(workload, reps):
    """Check one set of repetitions of a workload. Each repetition is a
    dict with the exit code "rc", the stdout bytes "out" and the parsed
    stderr record "host". Returns (correct, attempted, failed, good):
    attempted counts every cell of every repetition; a repetition that
    did not complete, or whose artifact does not add up, fails all its
    cells; if the completed repetitions did not all print the same
    artifact, determinism is broken and every cell fails. [good] lists
    the completed repetitions, whose numbers are reported."""
    cells, steps = SHAPE[workload]
    attempted = cells * len(reps)
    good = []
    for r in reps:
        summary = summary_of(r["out"]) if r["rc"] == 0 and r["host"] else None
        if summary is not None and consistent(workload, r["out"]):
            good.append(dict(r, summary=summary))
    if not good or harness.mismatched([r["out"] for r in good]):
        return False, attempted, attempted, good
    s = good[0]["summary"]
    failed = cells * (len(reps) - len(good))
    shape_ok = s["cells"] == cells and s["steps"] == steps and s["completed"] > 0
    return failed == 0 and shape_ok, attempted, failed, good


def end_to_end(workload, seed, seconds, jobs):
    setup = []
    for _ in range(SETUP_RUNS):
        rc, _, host, wall = bench3("run", workload, seed, jobs, ["--setup"])
        if rc != 0 or host is None:
            fail("set-up run failed")
        setup.append(wall)

    reps = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        rc, out, host, wall = bench3("run", workload, seed, jobs)
        reps.append({"rc": rc, "out": out, "host": host})
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + wall > seconds:
            break

    correct, attempted, failed, good = assess(workload, reps)
    if not good:
        fail("no repetition completed")
    s = good[0]["summary"]
    digests = [hashlib.md5(r["out"]).hexdigest() for r in reps]

    # Throughput counts CPU seconds, not wall seconds: on a shared host,
    # wall time also counts the time other tenants hold the core. And the
    # CPU seconds are rescaled to the reference host by the calibration
    # kernel, because the host's core speed itself changes from minute to
    # minute. Wall-clock and raw CPU rates go to the report.
    ops_wall = [r["summary"]["completed"] / r["host"]["wall_s"] for r in good]
    ops_cpu = [r["summary"]["completed"] / r["host"]["cpu_s"] for r in good]
    ref_s = [harness.reference_seconds(r["host"], CALIBRATION_REF_S) for r in good]
    ops_ref = [r["summary"]["completed"] / t for r, t in zip(good, ref_s)]
    steps_ref = [r["summary"]["steps"] / t for r, t in zip(good, ref_s)]
    rss = [r["host"]["peak_rss_kb"] / 1024.0 for r in good]
    metrics = {
        "ops_per_ref_s": harness.median(ops_ref),
        "steps_per_ref_s": harness.median(steps_ref),
        "peak_rss_mb": harness.median(rss),
        "setup_s": harness.median(setup),
        "verdict_match_share": s["as_predicted"] / s["cells"],
        "op_p50_steps": s["op_p50_steps"],
        "op_p99_steps": s["op_p99_steps"],
        "ops_per_kstep": 1000.0 * s["completed"] / s["steps"],
    }
    report = provenance(workload, seed, jobs)
    report.update(
        {
            "trace": 0,
            "reps": len(reps),
            "ocaml_version": good[0]["host"]["ocaml_version"],
            "artifact_md5": digests,
            "wall_s": [r["host"]["wall_s"] for r in good],
            "setup_s": setup,
            "ops_per_s": ops_wall,
            "ops_per_cpu_s": ops_cpu,
            "ops_per_ref_s": ops_ref,
            "cpu_s": [r["host"]["cpu_s"] for r in good],
            "calibration_cpu_s": [r["host"]["calibration_cpu_s"] for r in good],
            "peak_rss_mb": rss,
            # within-run spread of the repetitions: how noisy this run was
            "spread": {
                "ops_per_s": harness.spread(ops_wall),
                "ops_per_cpu_s": harness.spread(ops_cpu),
                "ops_per_ref_s": harness.spread(ops_ref),
                "setup_s": harness.spread(setup),
            },
            "summary": s,
            "metrics": metrics,
        }
    )
    write_report(f"{workload}-{seed}-trace0.json", report)
    print(json.dumps({k: report[k] for k in ("bench", "workload", "seed", "domains", "nproc", "git_sha", "reps")}))
    return correct, attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload, seed, jobs):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    rc, out, info, _ = bench3("trace", workload, seed, jobs, ["--spans-out", spans_path])
    if rc != 0 or info is None:
        fail("traced pass failed")
    cells, _ = SHAPE[workload]
    s = summary_of(out)
    single = hashlib.md5(out).hexdigest()
    # the one-domain artifact, the untraced run's and (where the traced
    # run prints one) the traced run's must all be byte-identical
    same = not harness.mismatched([single] + info["digests"])
    runs = info["cells"] // cells
    ok = same and info["consistent"] and s is not None and consistent(workload, out)
    failed = 0 if ok else info["cells"]
    metrics = {}
    for name, value in info["metrics"].items():
        if name in PER_LAYER_UNITS and math.isfinite(value):
            metrics[name] = (value, PER_LAYER_UNITS[name])
    # a speedup exists only with more than one domain
    expected = set(PER_LAYER_UNITS)
    if info["domains"] < 2:
        expected -= {"parallel.speedup", "parallel.serial_fraction"}
    correct = ok and set(metrics) == expected

    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    report = provenance(workload, seed, jobs)
    report.update(
        {
            "trace": 1,
            "runs": runs,
            "artifact_md5": [single] + info["digests"],
            "wall_s": info["wall_s"],
            "ocaml_version": info["ocaml_version"],
            "micro_ns_min_max": info["micro_ns_range"],
            "spans": harness.span_self_times(spans),
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
    )
    write_report(f"{workload}-{seed}-trace1.json", report)
    print(json.dumps({k: report[k] for k in ("bench", "workload", "seed", "domains", "nproc", "git_sha")}))
    return correct, info["cells"], failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    if args.trace:
        result = per_layer(args.workload, args.seed, domains())
    else:
        jobs = domains() if args.workload in POOLED else 1
        result = end_to_end(args.workload, args.seed, args.seconds, jobs)
    print(harness.result_line(*result))


if __name__ == "__main__":
    main()
