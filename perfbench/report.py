"""Reductions behind perfbench/run.py: percentiles, the tail-percentile
rule, per-span self time and the check that the printed metric names are
exactly the ones BENCHMARK.json declares. Pure functions, no I/O."""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Percentile `p` (0-100) by linear interpolation between order
    statistics (the same rule as numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of `n`
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        # Rounded so that e.g. 1000 samples at p99 count as 10 beyond.
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            return p
    return None


# Samples per block of the blocked p90: the fewest that have MIN_BEYOND
# samples beyond their p90.
P90_BLOCK = 100


def blocked_p90(samples):
    """Median, over consecutive blocks of P90_BLOCK samples, of each
    block's p90 (a trailing partial block joins the last full one).

    Samples arrive in time order, so a block covers a short stretch of the
    run: a slow spell of a shared machine inflates the p90 of the few
    blocks it overlaps and not the reported median of them."""
    n = len(samples)
    if n < P90_BLOCK:
        raise ValueError(f"p90 needs at least {P90_BLOCK} samples, got {n}")
    blocks = n // P90_BLOCK
    edges = [b * P90_BLOCK for b in range(blocks)] + [n]
    return statistics.median(
        percentile(samples[edges[b]:edges[b + 1]], 90.0) for b in range(blocks))


def reduce_series(series):
    """Value of one raw series from the benchmark binary: its median, or
    its blocked p90 (see blocked_p90)."""
    samples = series["samples"]
    if not samples:
        raise ValueError("no samples")
    if series["stat"] == "median":
        return statistics.median(samples)
    if series["stat"] == "p90":
        return blocked_p90(samples)
    raise ValueError(f"unknown stat {series['stat']!r}")


def check_names(metrics, declared):
    """Raise ValueError unless `metrics` (name -> {"value", "unit"}) holds
    exactly the `declared` BENCHMARK.json entries, with the same units."""
    names = set(metrics)
    want = {d["name"]: d["unit"] for d in declared}
    missing = sorted(set(want) - names)
    extra = sorted(names - set(want))
    if missing or extra:
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    wrong = sorted(n for n in names if metrics[n]["unit"] != want[n])
    if wrong:
        raise ValueError(f"metric units differ from BENCHMARK.json: {wrong}")


def self_times(spans):
    """Per span name: count, total and self milliseconds.

    `spans` are dicts with `id`, `parent`, `name`, `ts` and `dur` (both in
    microseconds) and optionally the layer `cat`. A span's self time is its duration minus the part of
    its interval covered by its children (the union of the children's
    intervals, clipped to the parent's), so overlapping children on
    several threads are not subtracted twice."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        intervals = sorted(
            (max(c["ts"], start), min(c["ts"] + c["dur"], end))
            for c in children.get(s["id"], ()))
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table.setdefault(s["name"], {"layer": s.get("cat", ""), "count": 0,
                                           "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += s["dur"] / 1e3
        row["self_ms"] += (s["dur"] - covered) / 1e3
    return table

