#!/usr/bin/env python3
"""Timing-regression guard for the simulator hot loop.

Guards two timing curves pinned in ``results/hotloop_baseline.json``:

1. The detailed-model hot loop (protocol in
   :func:`run_experiments.measure_hot_loop`): fails when the
   drift-normalized speedup over the pre-optimization baseline has
   regressed more than ``--max-regression`` (default 25 %) below the
   recorded ``optimized_speedup``.
2. The sampled-point latency curve (protocol in
   :func:`run_experiments.measure_sampled_point`): re-times one sampled
   simulation point under the serial and window-sharded schedules and
   fails when either drift-normalized latency regresses more than
   ``--max-regression`` past its recorded baseline — or, regardless of
   any tolerance, when the two schedules stop being bit-identical
   (that is a correctness bug in the window sharding, not drift).
   The sharded-vs-serial latency comparison only holds on a machine
   with the same core count the baseline was recorded on; when
   ``os.cpu_count()`` differs from the baseline's ``cpu_count``, the
   sharded curve's latency check is skipped with a notice (the serial
   curve and the bit-identity check still run).

The guard also fails when the run's cycle count drifts from the
baseline: a changed cycle count means the detailed model's semantics
changed, so the wall-time comparison is no longer like-for-like.  When
the semantic change is intentional, re-record the baseline and pass
``--allow-drift`` for the transition run.

Exit status: 0 when within budget, 1 on a regression or drift, 2 when
the measurement itself could not run.

Usage:  python scripts/check_hotloop.py [--max-regression 0.25]
            [--allow-drift] [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_experiments import (  # noqa: E402  (scripts/ is not a package)
    CACHE_DIR,
    HOTLOOP_BASELINE,
    Runner,
    measure_hot_loop,
    measure_sampled_point,
)


def check_sampled_point(runner, baseline, max_regression: float) -> int:
    """Guard the second curve: sampled-point latency, serial and sharded.

    Returns the exit status contribution: 0 when within budget, 1 on a
    regression or a bit-identity break, 2 when the measurement could
    not run.
    """
    if "sampled_point" not in baseline:
        print(
            "error: baseline has no sampled_point record.\n"
            "The guard compares the serial and window-sharded latency of "
            "one sampled simulation point against recorded timings; "
            "restore results/hotloop_baseline.json from version control "
            "or re-record it per the protocol in "
            "run_experiments.measure_sampled_point."
        )
        return 2

    record = measure_sampled_point(runner)
    if record is None:
        print("sampled-point measurement failed to run")
        return 2

    if not record["identical"]:
        print(
            "sampled point: BIT-IDENTITY BROKEN — the serial and "
            "window-sharded schedules no longer hash to the same result. "
            "This is a correctness bug in the window sharding, not a "
            "timing drift; no tolerance applies."
        )
        return 1

    # Each curve is judged against its own baseline, normalized by the
    # same machine-drift factor.  The serial curve's cost does not
    # depend on the core count, but the sharded curve's does (pool
    # dispatch overhead vs actual parallelism), so its latency check is
    # only like-for-like on a machine with the baseline's core count.
    baseline_cores = baseline.get(
        "cpu_count", baseline["sampled_point"].get("cores_recorded")
    )
    curves = ["serial", "sharded"]
    if baseline_cores is not None and record["cores"] != baseline_cores:
        curves.remove("sharded")
        print(
            f"sampled point [sharded]: latency check skipped — this "
            f"machine has {record['cores']} cores but the baseline was "
            f"recorded on {baseline_cores}, so the sharded schedule's "
            f"cost is not comparable (bit-identity was still checked)"
        )
    factor = record["machine_factor"]
    status = 0
    for curve in curves:
        measured = record[f"{curve}_seconds"]
        budget = record[f"baseline_{curve}_seconds"] * factor
        ceiling = budget * (1.0 + max_regression)
        verdict = "OK" if measured <= ceiling else "REGRESSION"
        if verdict == "REGRESSION":
            status = 1
        print(
            f"sampled point [{curve}]: {budget:.3f} s baseline -> "
            f"{measured:.3f} s now (ceiling {ceiling:.3f}, "
            f"machine drift x{factor:.3f}) [{verdict}]"
        )
    print(
        f"sampled point: {record['chunks']} chunks, "
        f"window_jobs={record['config']['window_jobs']}, "
        f"{record['cores']} cores, bit-identical=True"
    )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="tolerated fractional slowdown vs the recorded "
        "optimized_speedup (default 0.25)",
    )
    parser.add_argument(
        "--allow-drift", action="store_true",
        help="do not fail when the cycle count differs from the baseline "
        "(use for the run that intentionally changes model semantics)",
    )
    parser.add_argument(
        "--repeats", type=int, default=8,
        help="timing repeats, min is taken (default 8)",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(HOTLOOP_BASELINE):
        print(
            f"error: no hot-loop baseline at {HOTLOOP_BASELINE}.\n"
            "The guard compares current timings against a recorded "
            "pre-optimization run; restore the file from version control "
            "(git checkout -- results/hotloop_baseline.json) or re-record "
            "it per the protocol in run_experiments.measure_hot_loop."
        )
        return 2
    try:
        with open(HOTLOOP_BASELINE) as handle:
            baseline = json.load(handle)
        if not isinstance(baseline, dict):
            raise ValueError("baseline JSON is not an object")
        for field in ("config", "before_seconds", "calibration_seconds"):
            if field not in baseline:
                raise KeyError(field)
    except (OSError, ValueError, KeyError) as exc:
        print(
            f"error: hot-loop baseline {HOTLOOP_BASELINE} is "
            f"unreadable or malformed ({exc!r}).\n"
            "Restore it from version control "
            "(git checkout -- results/hotloop_baseline.json) or re-record "
            "it per the protocol in run_experiments.measure_hot_loop."
        )
        return 2
    target = baseline.get("optimized_speedup")
    if not target:
        print(
            "baseline has no optimized_speedup record; nothing to guard. "
            "Re-record results/hotloop_baseline.json with the current "
            "optimized timing to arm the guard."
        )
        return 2

    runner = Runner(cache_dir=CACHE_DIR)
    record = measure_hot_loop(runner, args.repeats)
    if record is None:
        print("hot-loop measurement failed to run")
        return 2

    if record.get("speedup") is None:
        print(f"cycle drift: {record.get('note', 'unknown cause')}")
        if args.allow_drift:
            print("--allow-drift given; skipping the timing comparison")
            return check_sampled_point(runner, baseline, args.max_regression)
        print(
            "the detailed model changed semantics; re-record "
            f"{os.path.relpath(HOTLOOP_BASELINE)} if this is intentional"
        )
        return 1

    floor = target / (1.0 + args.max_regression)
    verdict = "OK" if record["speedup"] >= floor else "REGRESSION"
    print(
        f"hot loop: {record['adjusted_before_seconds']:.3f} s baseline -> "
        f"{record['after_seconds']:.3f} s now "
        f"(speedup {record['speedup']:.3f}, recorded optimum {target:.3f}, "
        f"floor {floor:.3f}, machine drift x{record['machine_factor']:.3f}) "
        f"[{verdict}]"
    )
    hot_status = 0 if verdict == "OK" else 1
    shard_status = check_sampled_point(runner, baseline, args.max_regression)
    return max(hot_status, shard_status)


if __name__ == "__main__":
    sys.exit(main())
