#!/usr/bin/env python3
"""Gate bench reports against committed baselines.

Usage:
    scripts/bench_check.py CURRENT.json BASELINE.json

Compares a freshly generated bench report (BENCH_fig4.json,
BENCH_scalability.json, BENCH_qp.json) against the committed baseline in
bench/baselines/ and exits non-zero on regression. Two classes of values
get two very different treatments:

* Deterministic numerics — counters (net.bytes, crypto.masks_generated,
  linalg.gemm.flops), ADMM residual series, accuracies, iteration counts —
  must match the baseline EXACTLY. The repo pins bit-identical training
  runs in its tests, so any drift here is a real behaviour change, not
  noise.

* Time-like values — keys ending in `_s`/`_seconds`, containing `wall`,
  quantile keys like `p50`/`p95`/`p99`, throughput (`qps`, a pure
  function of wall time), unit costs such as `crc32_ns_per_byte` (keys
  containing `_ns_per_`; the slack below applies to them as given, in
  nanoseconds), plus everything inside a
  `histograms` subtree (histogram sums accumulate in thread order, so
  their low bits are not reproducible) — only fail when they drift by
  more than TIME_RATIO x in either direction AND the absolute difference
  exceeds TIME_ABS_SLACK seconds. Container timing jitter on
  micro-second-scale phases is huge; this gates catastrophic slowdowns
  without flaking on noise.

* Overhead percentages — keys ending in `_pct` (the privacy-ledger cell's
  `ledger_overhead_pct` in BENCH_crypto.json) are ratios of two timings,
  so baseline equality is meaningless; they gate on an absolute ceiling
  (PCT_CEILING) instead. The generating bench applies its own, tighter
  budget first — this is the backstop.

The report structure itself (keys, array lengths, value kinds) must match
exactly: a missing phase or counter means instrumentation silently broke.

Refresh a baseline deliberately with:
    cp build/BENCH_fig4.json bench/baselines/BENCH_fig4.json
"""

import json
import re
import sys

TIME_RATIO = 4.0  # fail when current/baseline (or inverse) exceeds this...
TIME_ABS_SLACK = 0.25  # ...and the absolute drift is more than this (s)
RSS_RATIO = 8.0  # peak RSS gates only on order-of-magnitude blowups
PCT_CEILING = 3.5  # *_pct overhead keys fail only above this ceiling

TIME_KEY = re.compile(r"(_s|seconds)$|wall|^p\d+$|^qps$|^speedup$|_ns_per_")

# Informational keys: environment-dependent measurements that legitimately
# differ between the machine that committed the baseline and the machine
# running the check. Their presence/absence never fails the key-shape
# check; `peak_rss_bytes` gates only with the generous RSS_RATIO slack and
# an `isa` mismatch just warns (a baseline recorded on an AVX2 box must not
# fail on a scalar-only one, and vice versa).
INFO_KEYS = {"peak_rss_bytes", "isa"}

NUMERIC = (int, float)


def is_time_like(key, in_histogram):
    return in_histogram or TIME_KEY.search(key) is not None


def check_time(path, current, baseline, problems):
    drift = abs(current - baseline)
    if drift <= TIME_ABS_SLACK:
        return
    lo, hi = sorted([abs(current), abs(baseline)])
    if lo == 0 or hi / lo > TIME_RATIO:
        problems.append(
            f"{path}: timing drifted {baseline!r} -> {current!r} "
            f"(>{TIME_RATIO}x and >{TIME_ABS_SLACK}s)")


def check_pct(path, current, problems):
    if abs(current) > PCT_CEILING:
        problems.append(
            f"{path}: overhead {current!r}% exceeds the {PCT_CEILING}% "
            f"ceiling")


def check_rss(path, current, baseline, problems):
    lo, hi = sorted([abs(current), abs(baseline)])
    if lo == 0 or hi / lo > RSS_RATIO:
        problems.append(
            f"{path}: peak RSS drifted {baseline!r} -> {current!r} "
            f"(>{RSS_RATIO}x)")


def compare(path, current, baseline, problems, in_histogram=False):
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            problems.append(f"{path}: expected object, got {type(current).__name__}")
            return
        missing = sorted(baseline.keys() - current.keys() - INFO_KEYS)
        extra = sorted(current.keys() - baseline.keys() - INFO_KEYS)
        if missing:
            problems.append(f"{path}: missing keys {missing}")
        if extra:
            problems.append(f"{path}: unexpected keys {extra}")
        for key in sorted(baseline.keys() & current.keys()):
            compare(f"{path}.{key}", current[key], baseline[key], problems,
                    in_histogram or key == "histograms")
    elif isinstance(baseline, list):
        if not isinstance(current, list):
            problems.append(f"{path}: expected array, got {type(current).__name__}")
            return
        if len(current) != len(baseline):
            problems.append(
                f"{path}: length {len(baseline)} -> {len(current)}")
            return
        for i, (c, b) in enumerate(zip(current, baseline)):
            compare(f"{path}[{i}]", c, b, problems, in_histogram)
    elif isinstance(baseline, bool) or not isinstance(baseline, NUMERIC):
        if current != baseline:
            key = path.rsplit(".", 1)[-1].split("[")[0]
            if key in INFO_KEYS:
                print(f"bench_check: note: {path}: {baseline!r} -> "
                      f"{current!r} (informational)")
            else:
                problems.append(f"{path}: {baseline!r} -> {current!r}")
    else:  # numeric leaf: int/float are interchangeable kinds (0 vs 0.0)
        if isinstance(current, bool) or not isinstance(current, NUMERIC):
            problems.append(f"{path}: expected number, got {current!r}")
            return
        key = path.rsplit(".", 1)[-1].split("[")[0]
        if key == "peak_rss_bytes":
            check_rss(path, current, baseline, problems)
        elif key.endswith("_pct"):
            check_pct(path, current, problems)
        elif is_time_like(key, in_histogram):
            check_time(path, current, baseline, problems)
        elif current != baseline:
            problems.append(f"{path}: {baseline!r} -> {current!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        current = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)
    problems = []
    compare("$", current, baseline, problems)
    if problems:
        print(f"bench_check: {argv[1]} regressed vs {argv[2]}:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"bench_check: {argv[1]} matches {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
