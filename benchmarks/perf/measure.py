"""Measure one perf-benchmark workload in this process.

``run.py`` starts this script in a fresh interpreter per workload, so
that imports, set-up and peak memory are a cold process's.  The last
line it prints is the run's JSON result, without ``peak_rss_mb``, which
only the parent can read once this process and its pool workers exit.

Run directly (``run.py`` is the normal entry point)::

    PYTHONPATH=src python3 benchmarks/perf/measure.py --workload detail-1e-4 \\
        --seed 1 --seconds 8 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from checks import CheckLog, check_pins, check_run_result, check_same_hashes
from checks import check_serving_result
from layers import Tracer, layer_metrics, traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
PINS = os.path.join(ROOT, "tests", "golden", "bitident.json")
#: Scratch space for round cache directories and traces (git-ignored).
#: A run reads and writes only inside the checkout it runs from.
WORKDIR = os.path.join(ROOT, ".perf-work")


def declared() -> dict:
    """``BENCHMARK.json``: run length, workload names and every metric's unit."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {
        "run_seconds": spec["run_seconds"],
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def calibrate() -> float:
    """One host-speed sample: the fixed loop ``scripts/check_hotloop.py`` times.

    It is printed beside the timings to show the host's drift; no timing
    is scaled by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - start


def import_probes(count: int = 3) -> list[float]:
    """Import time of the benchmark's modules in ``count`` fresh interpreters.

    A process imports once, so set-up repeats its imports in probes.
    """
    code = (
        "import time; start = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return times


def git_head() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip()


def _percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str = WORKDIR,
    trace_dir: str | None = None,
    import_s: float = 0.0,
    calibrations: tuple = (),
    workload=None,
) -> dict:
    """Run workload ``name`` and check its outputs; returns the JSON result.

    ``import_s`` is the caller's import time and ``calibrations`` the
    ``calibrate()`` samples it took before importing.  ``workload``
    overrides the registered definition (tests pass a shrunken copy).
    Untraced runs report the end-to-end metrics except ``peak_rss_mb``;
    traced runs report the per-layer metrics.
    """
    import workloads as W
    from repro.analysis.runner import code_version

    workload = workload or W.WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    samples = [*calibrations, calibrate()]
    ignored = (
        f" (--seed {seed} ignored: this workload always runs seed {workload.fixed_seed})"
        if workload.fixed_seed is not None and seed != workload.fixed_seed else ""
    )
    print(
        f"context: workload={workload.name} seed={W.seed_of(workload, seed)}{ignored} "
        f"nproc={os.cpu_count()} jobs={W.JOBS} python={platform.python_version()} "
        f"code_version={code_version()} git_head={git_head()}",
        flush=True,
    )
    log = CheckLog()
    if trace:
        tracer = Tracer()
        with tracer.span(workload.name):
            with traced(tracer), tracer.span("setup"):
                inputs = W.setup(workload, seed)
            traced_round = W.run_round(workload, inputs, seed, 1, workdir, tracer)
        samples.append(calibrate())
        rounds = [W.run_round(workload, inputs, seed, W.JOBS, workdir), traced_round]
        samples.append(calibrate())
    else:
        setup_times = []
        for _ in range(workload.setups):
            start = time.perf_counter()
            inputs = W.setup(workload, seed)
            setup_times.append(time.perf_counter() - start)
        samples.append(calibrate())
        rounds = []
        start = time.perf_counter()
        while len(rounds) < workload.min_rounds or time.perf_counter() - start < seconds:
            rounds.append(W.run_round(workload, inputs, seed, W.JOBS, workdir))
            samples.append(calibrate())
    calib = statistics.median(samples)
    print(
        f"host: host.calib_s={calib:.4f} (median of {len(samples)} samples, "
        f"{min(samples):.4f}-{max(samples):.4f})",
        flush=True,
    )
    for index, round_ in enumerate(rounds, 1):
        label = "traced" if trace and index == 2 else "untraced"
        print(
            f"round {index} ({label}): {round_.wall:.3f} s, "
            f"{len(round_.results)}/{round_.expected} points, "
            f"{round_.instructions} instructions",
            flush=True,
        )

    # ----- output checks --------------------------------------------------
    paper = W.paper_round(workload, rounds[0])
    checked = rounds if paper is rounds[0] else [*rounds, paper]
    points_attempted = sum(r.expected for r in checked)
    points_failed = sum(r.expected - len(r.results) for r in checked)
    for round_ in checked:
        for request, result in round_.results.items():
            if workload.kind == "serving":
                check_serving_result(log, request, result)
            else:
                check_run_result(log, request, result)
    hashes = [r.hashes() for r in rounds]
    for index, later in enumerate(hashes[1:], 2):
        check_same_hashes(log, hashes[0], later, "traced" if trace else f"round {index}")
    if not trace and workload.kind != "points":
        rerun = W.rerun_in_process(workload, rounds[0])
        check_same_hashes(log, hashes[0], rerun, "in-process re-run")
    if log.check(os.path.exists(PINS), f"pin file {PINS} missing"):
        with open(PINS) as handle:
            pinned = check_pins(log, {**hashes[0], **paper.hashes()}, json.load(handle))
        # A pin that silently stops overlapping (a request field drifting
        # from the pinned one) would turn its check off: count them.
        log.check(
            pinned == workload.pins,
            f"{pinned} bit-identity pins overlap this run's seed-0 points, "
            f"expected {workload.pins}",
        )
        print(f"bit-identity pins checked: {pinned}", flush=True)
    if trace:
        for label in workload.required:
            log.check(
                tracer.count({label}) > 0,
                f"traced run saw no call to {label}: a reference the "
                "tracer did not patch",
            )
    for failure in log.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    attempted = points_attempted + log.attempted
    failed = points_failed + log.failed

    # ----- metrics --------------------------------------------------------
    if trace:
        untraced, traced_round = rounds
        busy = sum(untraced.point_seconds)
        metrics = layer_metrics(tracer)
        metrics.update({
            "runner.points": len(untraced.point_seconds),
            "runner.retries": untraced.retries,
            "runner.failed_points": untraced.failed_points,
            "runner.busy_s": busy,
            "runner.pool_util": (
                busy / (W.JOBS * untraced.batch_seconds)
                if untraced.batch_seconds else 0.0
            ),
            "runner.point_p50_s": _percentile(untraced.point_seconds, 50),
            "runner.point_p85_s": _percentile(untraced.point_seconds, 85),
            "host.calib_s": calib,
            # Pooled rounds run untraced with pool workers but traced in
            # process, so only in-process workloads have a like-for-like
            # untraced wall to compare against.
            "trace.overhead_pct": (
                100.0 * (traced_round.wall - untraced.wall) / untraced.wall
                if workload.kind == "points" else 0.0
            ),
        })
        paths = tracer.write(trace_dir or os.path.join(workdir, "trace"), workload.name)
        print(f"trace written to {paths[0]}; layer table in {paths[1]}", flush=True)
        units = declared()["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "sim_kips": statistics.median(r.instructions / r.wall / 1e3 for r in rounds),
            "setup_s": import_s + statistics.median(setup_times),
            "ok_frac": 1.0 - failed / attempted,
            "paper_err_pct": W.paper_err_pct(paper.paper_pairs),
        }
        units = dict(declared()["end_to_end"])
        del units["peak_rss_mb"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{sorted(units)}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    before = calibrate()
    start = time.perf_counter()
    try:
        importlib.import_module("workloads")
    except ImportError as exc:
        print(f"cannot import the simulator ({exc}); run from a repo checkout", file=sys.stderr)
        return 2
    import_s = statistics.median([time.perf_counter() - start, *import_probes()])
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_dir=args.trace_dir, import_s=import_s, calibrations=(before,),
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
