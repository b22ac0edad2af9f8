#!/usr/bin/env python3
"""Timing-regression guard for the simulator hot loop.

Re-times one reference simulation — the configuration pinned in
``results/hotloop_baseline.json`` — under the protocol the baseline was
recorded with (:func:`measure_hot_loop`), and fails when the
drift-normalized speedup over the pre-optimization baseline has
regressed more than ``--max-regression`` (default 25 %) below the
recorded ``optimized_speedup``.

The guard also fails when the run's cycle count drifts from the
baseline: a changed cycle count means the detailed model's semantics
changed, so the wall-time comparison is no longer like-for-like.  When
the semantic change is intentional, re-record the baseline and pass
``--allow-drift`` for the transition run.

Exit status: 0 when within budget, 1 on a regression or drift, 2 when
the measurement itself could not run.

Usage:  PYTHONPATH=src python scripts/check_hotloop.py
            [--max-regression 0.25] [--allow-drift] [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from repro.analysis.runner import Runner, memory_factory, workload_traces
from repro.core.fetch import FetchPolicy
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "results")
HOTLOOP_BASELINE = os.path.join(RESULTS_DIR, "hotloop_baseline.json")
#: The experiment sweep's cache directory (``scripts/run_experiments.py``);
#: the reference run's traces are prebuilt into its trace cache.
CACHE_DIR = os.path.join(RESULTS_DIR, ".runcache")


def calibrate() -> float:
    """Machine-speed calibration: a fixed 2M-iteration integer loop.

    The baseline recording timed the same loop, inside a function as
    here (module level would run on dict lookups and skew the
    comparison), so the baseline figure can be scaled to this machine's
    current speed: shared machines drift ±30 % from one run to the next.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - t0


def time_hot_loop(cfg: dict, repeats: int, trace_dir: str | None) -> dict:
    """Min-of-``repeats`` wall time of the reference run, plus calibration.

    Only ``SMTProcessor`` construction and ``run()`` are timed; loading
    the prebuilt traces is not.  Runs in a fresh interpreter (see
    :func:`measure_hot_loop`).
    """
    traces = workload_traces(
        cfg["isa"], cfg["scale"], cfg["seed"], trace_dir
    )
    best = cycles = calibration = None
    for __ in range(repeats):
        t0 = time.perf_counter()
        processor = SMTProcessor(
            SMTConfig(isa=cfg["isa"], n_threads=cfg["n_threads"]),
            memory_factory(cfg["memory"])(),
            traces,
            fetch_policy=FetchPolicy(cfg["fetch_policy"]),
            completions_target=cfg["completions_target"],
        )
        result = processor.run()
        elapsed = time.perf_counter() - t0
        cycles = result.cycles
        if best is None or elapsed < best:
            best = elapsed
        # Interleaved with the simulation repeats so both minima sample
        # the same load window.
        elapsed = calibrate()
        if calibration is None or elapsed < calibration:
            calibration = elapsed
    return {"best": best, "cycles": cycles, "calibration": calibration}


def measure_hot_loop(baseline: dict, repeats: int = 8) -> dict:
    """Re-time the reference hot-loop run against the recorded baseline.

    ``baseline`` is the parsed ``results/hotloop_baseline.json``: the
    pre-optimization wall time of one simulation, its configuration and
    its measurement protocol.  The traces are prebuilt here, then
    :func:`time_hot_loop` runs in a fresh interpreter, as the baseline
    was recorded: timing inside this process would charge its heap to
    the simulator under test.  Returns the before/after record; its
    ``speedup`` is ``None`` (with a ``note``) when the cycle count
    drifted from the baseline.
    """
    cfg = baseline["config"]
    runner = Runner(cache_dir=CACHE_DIR)
    runner.workload(cfg["isa"], cfg["scale"], cfg["seed"])
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        measured = pool.submit(
            time_hot_loop, cfg, repeats, runner.trace_dir
        ).result()
    # Scale the recorded baseline by the calibration drift so the ratio
    # compares simulator versions, not machine moods.
    machine_factor = measured["calibration"] / baseline["calibration_seconds"]
    adjusted_before = baseline["before_seconds"] * machine_factor
    record = {
        "machine_factor": round(machine_factor, 3),
        "adjusted_before_seconds": round(adjusted_before, 4),
        "after_seconds": round(measured["best"], 4),
        "speedup": round(adjusted_before / measured["best"], 3),
    }
    if measured["cycles"] != baseline["cycles"]:
        # The model changed since the baseline was recorded; the
        # comparison is no longer like-for-like, so flag that instead
        # of reporting a bogus speedup.
        record["speedup"] = None
        record["note"] = (
            f"cycle count drifted from the baseline "
            f"({measured['cycles']} vs {baseline['cycles']})"
        )
    return record


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
            "it per the protocol in check_hotloop.measure_hot_loop."
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
            "it per the protocol in check_hotloop.measure_hot_loop."
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

    try:
        record = measure_hot_loop(baseline, args.repeats)
    except Exception:
        traceback.print_exc()
        print("hot-loop measurement failed to run")
        return 2

    if record["speedup"] is None:
        print(f"cycle drift: {record['note']}")
        if args.allow_drift:
            print("--allow-drift given; skipping the timing comparison")
            return 0
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
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
