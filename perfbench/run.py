#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload contour|interactive \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the amrvis library and the perfbench
binary from source into .bench_build/ (Release), runs the workload, checks
that every operation succeeded, and prints a human-readable table followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are every end_to_end metric of BENCHMARK.json;
with --trace 1 every per_layer metric, after the per-layer self-time table
of the recorded spans and the measured tracing overhead. Raw samples and
the Chrome trace are kept under .bench_out/. Exits non-zero, without the
JSON line, when the benchmark cannot build or run; exits non-zero after
the JSON line when any operation failed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import report  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no amrvis sources next to perfbench/ (src/ is missing)")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def reduce_all(raw_series):
    return {name: {"value": report.reduce_series(s), "unit": s["unit"]}
            for name, s in raw_series.items()}


def print_metrics(title, raw_series, metrics):
    print(f"\n{title}")
    print(f"{'metric':58} {'value':>14} {'unit':10} {'n':>7}  tail")
    for name in sorted(metrics):
        s = raw_series[name]
        n = len(s["samples"])
        tail = report.tail_percentile(n)
        extra = ""
        if tail is not None and tail > 50.0:
            extra = f"p{tail:g}={report.percentile(s['samples'], tail):.6g}"
        print(f"{name:58} {metrics[name]['value']:14.6g} {s['unit']:10} {n:7}  {extra}")


def print_self_times(trace_path):
    spans = []
    for ev in json.loads(trace_path.read_text())["traceEvents"]:
        spans.append({"name": ev["name"], "cat": ev["cat"], "ts": ev["ts"],
                      "dur": ev["dur"], "id": ev["args"]["id"],
                      "parent": ev["args"]["parent"]})
    table = report.self_times(spans)
    print(f"\nper-layer self time ({len(spans)} spans, {trace_path.name})")
    print(f"{'layer':22} {'span':36} {'count':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{row['layer']:22} {name:36} {row['count']:8} "
              f"{row['total_ms']:12.1f} {row['self_ms']:12.1f}")


def print_overhead(untraced, traced):
    print("\ntracing overhead: traced minus untraced end-to-end value")
    print(f"{'metric':24} {'untraced':>14} {'traced':>14} {'delta':>12} {'delta%':>8}")
    for name in sorted(set(untraced) & set(traced)):
        a, b = untraced[name]["value"], traced[name]["value"]
        print(f"{name:24} {a:14.6g} {b:14.6g} {b - a:12.4g} {100.0 * (b - a) / a:8.2f}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    raw_path = OUT / f"raw-{tag}.json"
    trace_path = OUT / f"trace-{tag}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: run failed: {e}")
        return 2
    raw = json.loads(raw_path.read_text())

    try:
        e2e = reduce_all(raw["e2e"])
        print_metrics(f"end-to-end, untraced ({args.workload}, seed {args.seed})",
                      raw["e2e"], e2e)
        if args.trace:
            metrics = reduce_all(raw["layer"])
            print_metrics("per-layer, traced pass", raw["layer"], metrics)
            print_self_times(trace_path)
            print_overhead(e2e, reduce_all(raw["e2e_traced"]))
            report.check_names(metrics, spec["per_layer"])
        else:
            metrics = e2e
            report.check_names(metrics, spec["end_to_end"])
    except (KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    for err in raw["errors"]:
        log(f"perfbench: FAILED {err}")
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
