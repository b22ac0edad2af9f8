#!/usr/bin/env python3
"""Regenerate every table and figure at full experiment fidelity.

All figures share one cached, deduplicated run engine
(:mod:`repro.analysis.runner`): overlapping simulation points (figure 5
/ figure 6's round-robin rows / table 4) are simulated once, results are
persisted under ``results/.runcache/`` so re-running an unchanged sweep
performs zero simulations, and cache misses fan out over ``--jobs``
worker processes.  Serial and parallel sweeps, cold or warm, produce
bit-identical reports.

The combined report goes to stdout and (unless ``--output -``) to
``results/experiments_scale<scale>.txt``; machine-readable timing data
lands in ``results/BENCH_experiments.json``.

Runtime knobs:

* ``--scale`` — trace fidelity (fraction of paper instruction counts;
  default 1e-4 ≈ one trace instruction per 10k paper instructions).
  Runtime grows roughly linearly with scale; 2e-5 suits smoke tests.
* ``--jobs`` — worker processes for cache-missing simulations.

The sweep is fault tolerant (``docs/RESILIENCE.md``): every completed
simulation persists to the runcache immediately, so a sweep killed at
any point — even SIGKILL — resumes from its completed points on the
next invocation (a figure-level checkpoint in the cache directory
reports what a resumed sweep skipped).  ``--timeout`` bounds each run's
wall clock, transient worker failures retry with seeded backoff, and
``--max-failures`` / ``--fail-fast`` choose between salvaging partial
results and aborting early; a sweep that still has permanently-failed
points prints a structured failure report and exits with status 3.

Usage:  python scripts/run_experiments.py [--scale S] [--jobs N]
            [--no-cache] [--output PATH|-] [--timeout S] [--retries N]
            [--max-failures N | --fail-fast]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from repro.analysis import (
    DEFAULT_SAMPLING,
    ResilienceConfig,
    Runner,
    SweepFailure,
    run_breakdown_table3,
    run_fig4_ideal,
    run_fig5_real,
    run_fig6_fetch,
    run_fig8_decoupled,
    run_fig9_summary,
    run_serving_scenario,
    run_stall_breakdown,
    run_table4_cache,
)
from repro.analysis.runner import (
    code_version,
    read_checked_json,
    write_checked_json,
)
from repro.obs import PhaseProfiler

#: Default fidelity: 1e-4 = one trace instruction per 10k paper instructions.
DEFAULT_SCALE = 1e-4

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "results")
CACHE_DIR = os.path.join(RESULTS_DIR, ".runcache")


def scale_tag(scale: float) -> str:
    """Compact scientific tag for filenames: 1e-4, 2e-5, 1.5e-3."""
    mantissa, exponent = f"{scale:e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{int(exponent)}"


class SweepCheckpoint:
    """Figure-level progress marker for killed sweeps.

    The runcache itself is the point-level checkpoint — every completed
    simulation persists the moment it finishes — so a rerun after a
    crash never re-simulates completed points.  On top of that, this
    file (``sweep-checkpoint.json`` in the cache directory, checksummed
    and atomically written like every cache entry) records which
    figures already completed, so a resumed invocation can say what it
    is skipping.  The key ties the checkpoint to (scale, sampling, code
    version); a mismatched or unreadable checkpoint is simply ignored.
    It is removed when a sweep runs to completion.
    """

    def __init__(self, cache_dir: str | None, key: dict):
        self.path = (
            os.path.join(cache_dir, "sweep-checkpoint.json")
            if cache_dir
            else None
        )
        self.key = key
        self.completed: list[str] = []
        self.resumed_from: list[str] = []
        if self.path and os.path.exists(self.path):
            payload, status = read_checked_json(self.path)
            if status == "ok" and payload.get("key") == key:
                self.resumed_from = list(payload.get("completed", []))

    def mark(self, name: str) -> None:
        self.completed.append(name)
        self.flush()

    def flush(self) -> None:
        """Persist current progress unconditionally.

        ``mark`` flushes after every completed figure; the separate
        entry point exists for the SIGTERM/SIGINT handler, so a polite
        kill leaves exactly the checkpoint a SIGKILL-and-resume would
        find.
        """
        if self.path is None:
            return
        try:
            write_checked_json(
                self.path,
                {
                    "key": self.key,
                    "completed": self.completed,
                    "updated_at": time.time(),
                },
            )
        except OSError:
            pass  # a lost checkpoint only costs the resume notice

    def clear(self) -> None:
        if self.path and os.path.exists(self.path):
            os.unlink(self.path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale_pos", nargs="?", type=float, default=None,
        help="positional scale (backward compatible with the old CLI)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help=f"trace fidelity (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cache-missing runs (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result/trace cache (still dedups in process)",
    )
    parser.add_argument(
        "--output", default=None,
        help="report file (default results/experiments_scale<scale>.txt; "
        "'-' for stdout only)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result/trace cache directory (default results/.runcache; "
        "ignored with --no-cache)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget: a run exceeding it is killed, "
        "charged a timeout failure and retried (default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=3,
        help="retries per run for transient failures — worker crashes, "
        "timeouts, I/O errors (default 3)",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort the sweep once N points have failed permanently "
        "(default: salvage mode — finish and cache every completable "
        "point, then report the failures and exit 3)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first permanently-failed point instead of "
        "salvaging the rest of the sweep",
    )
    parser.add_argument(
        "--serving", action="store_true",
        help="also run the media-server scenario: open-loop stream "
        "traffic over the SMT/CMP×SMT grid with the three admission "
        "policies (docs/SERVING.md); cached through the same runner",
    )
    parser.add_argument(
        "--sampling", nargs="?", const="default", default=None,
        metavar="FF,WIN,WARM",
        help="statistical sampling: the bare flag uses the default "
        f"(ff,window,warmup)={DEFAULT_SAMPLING}; or give three "
        "comma-separated instruction counts.  Every EIPC table then "
        "reports a 95%% confidence interval.",
    )
    args = parser.parse_args(argv)
    if args.scale is not None and args.scale_pos is not None:
        parser.error("give the scale positionally or via --scale, not both")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.max_failures is not None and args.max_failures < 1:
        parser.error("--max-failures must be >= 1")
    args.scale = (
        args.scale if args.scale is not None
        else args.scale_pos if args.scale_pos is not None
        else DEFAULT_SCALE
    )
    if args.sampling is not None:
        if args.sampling == "default":
            args.sampling = DEFAULT_SAMPLING
        else:
            try:
                parts = tuple(int(v) for v in args.sampling.split(","))
            except ValueError:
                parts = ()
            if len(parts) != 3:
                parser.error("--sampling takes FF,WIN,WARM (three integers)")
            args.sampling = parts
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    scale = args.scale
    sampling = args.sampling
    cache_dir = None if args.no_cache else (args.cache_dir or CACHE_DIR)
    resilience = ResilienceConfig(
        timeout=args.timeout,
        max_attempts=args.retries + 1,
        max_failures=args.max_failures,
        fail_fast=args.fail_fast,
    )
    runner = Runner(jobs=args.jobs, cache_dir=cache_dir, resilience=resilience)
    checkpoint = SweepCheckpoint(
        cache_dir,
        key={
            "scale": repr(scale),
            "sampling": list(sampling) if sampling else None,
            "code_version": code_version(),
        },
    )
    if checkpoint.resumed_from:
        # Stdout only, never the report: a straight-through sweep and a
        # killed-and-resumed sweep must produce identical report files.
        print(
            f"resuming from checkpoint: {', '.join(checkpoint.resumed_from)} "
            "completed previously; their points are served from the runcache"
        )

    lines: list[str] = []

    def emit(*parts: str) -> None:
        text = " ".join(parts)
        print(text)
        lines.append(text)

    emit(f"# Experiment run at scale={scale:g} (jobs={args.jobs}, "
         f"cache={'off' if args.no_cache else 'on'}, "
         f"sampling={'off' if not sampling else sampling})\n")
    start = time.time()
    timings: dict[str, dict] = {}
    profiler = PhaseProfiler()
    stall_breakdown: dict | None = None

    def timed(name, fn, **kwargs):
        before = runner.stats.snapshot()
        t0 = time.time()
        with profiler.phase(name):
            result = fn(scale=scale, runner=runner, **kwargs)
        timings[name] = {
            "wall_seconds": time.time() - t0,
            **runner.stats.delta_since(before),
        }
        emit(result.report, "\n")
        checkpoint.mark(name)
        return result

    def write_bench(status: str) -> None:
        stats = runner.stats
        # Throughput covers cache hits too: cached results carry the
        # wall time of the run that produced them, so a fully-cached
        # sweep still reports the throughput its numbers were simulated
        # at instead of null.
        throughput_seconds = stats.sim_seconds + stats.cached_sim_seconds
        throughput_instructions = (
            stats.sim_instructions + stats.cached_instructions
        )
        bench = {
            "scale": scale,
            "jobs": args.jobs,
            "cache": not args.no_cache,
            "sampling": list(sampling) if sampling else None,
            "code_version": code_version(),
            "status": status,
            "wall_seconds": time.time() - start,
            "resumed_figures": checkpoint.resumed_from,
            "resilience": {
                "timeout": args.timeout,
                "max_attempts": args.retries + 1,
                "max_failures": args.max_failures,
                "fail_fast": args.fail_fast,
            },
            "runner": stats.snapshot(),
            "failures": [
                outcome.to_dict()
                for outcome in runner.outcomes.values()
                if outcome.status != "ok"
            ],
            "instructions_per_second": (
                throughput_instructions / throughput_seconds
                if throughput_seconds else None
            ),
            "figures": timings,
        }
        if stall_breakdown is not None:
            bench["stall_breakdown"] = stall_breakdown
        # Wall-clock phase tree (repro.obs.PhaseProfiler): volatile by
        # construction, never part of report comparisons.
        bench["profile"] = profiler.to_dict()
        os.makedirs(RESULTS_DIR, exist_ok=True)
        bench_path = os.path.join(RESULTS_DIR, "BENCH_experiments.json")
        with open(bench_path, "w") as handle:
            json.dump(bench, handle, indent=2)
            handle.write("\n")
        print(f"timing data written to {bench_path}")

    def print_resilience_summary() -> None:
        # Stdout only (not the report): fault handling varies run to
        # run, the tables must not.  Printed unconditionally so a clean
        # run is visibly clean and a salvaged run visibly salvaged —
        # these counts previously rode BENCH provenance only.
        stats = runner.stats
        print(
            f"resilience: {stats.retries} retries, {stats.timeouts} timeouts, "
            f"{stats.pool_breaks} pool restarts, "
            f"{stats.corrupt_quarantined} corrupt cache entries quarantined, "
            f"{stats.cache_write_errors} cache write errors, "
            f"{stats.degraded} serial degradations, "
            f"{stats.failed_points} failed points"
        )

    def _interrupted(signum, frame):
        raise SystemExit(128 + signum)

    # A polite kill (TERM from a scheduler, Ctrl-C) must leave the same
    # resumable state a SIGKILL does: the handler turns the signal into
    # an orderly unwind, and the except branch below flushes the figure
    # checkpoint before exiting.  Only the main thread may install
    # signal handlers; elsewhere (tests driving main() from a worker
    # thread) the default disposition stays.
    previous_handlers: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, _interrupted
                )
            except (ValueError, OSError):  # pragma: no cover
                pass

    try:
        try:
            timed("table3", run_breakdown_table3)
            fig4 = timed("fig4", run_fig4_ideal, sampling=sampling)
            fig5 = timed("fig5", run_fig5_real, ideal=fig4, sampling=sampling)
            timed("table4", run_table4_cache, fig5=fig5)
            fig6 = timed("fig6", run_fig6_fetch, sampling=sampling)
            timed("fig8", run_fig8_decoupled, sampling=sampling)
            timed("fig9", run_fig9_summary, sampling=sampling)
            # Observed companion runs (full detail, artifact-cached):
            # where the fetch/dispatch slots went at the headline 8T
            # point.
            stall_breakdown = timed("stalls", run_stall_breakdown).measured
            if args.serving:
                # The media-server scenario (open-loop arrivals over the
                # serving grid) rides the same cached runner: a warm
                # rerun simulates nothing and reproduces the report byte
                # for byte.
                timed("serving", run_serving_scenario)
        except SweepFailure as failure:
            # Completed points are cached; the checkpoint stays so a
            # rerun resumes instead of restarting.
            print(f"\n{failure.summary()}", file=sys.stderr)
            print(
                "sweep stopped; every completed point is cached — fix the "
                "cause (or relax --max-failures) and rerun to resume from "
                "the checkpoint",
                file=sys.stderr,
            )
            print_resilience_summary()
            write_bench("failed")
            return 3
        except SystemExit as exc:
            # The signal handler above (or an injected stand-in): flush
            # the figure checkpoint so the interrupted sweep resumes
            # exactly like a crashed one, then exit with the
            # conventional 128+signum status.
            checkpoint.flush()
            print(
                "\ninterrupted; figure checkpoint flushed — every "
                "completed point is cached, rerun to resume",
                file=sys.stderr,
            )
            print_resilience_summary()
            write_bench("interrupted")
            code = exc.code
            return code if isinstance(code, int) else 1
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    # Section 5.3's scalar/vector mixing statistic at 8 threads.
    for isa in ("mmx", "mom"):
        run = fig6.runs[(isa, "rr", 8)]
        emit(
            f"{isa.upper()} vector-only issue cycles @8T (RR): "
            f"{run.vector_only_fraction:.1%} "
            f"(paper: {'1%' if isa == 'mmx' else '4%'})"
        )

    wall = time.time() - start
    stats = runner.stats
    emit(
        f"\nruns: {stats.requested} requested, {stats.deduplicated} deduped, "
        f"{stats.memo_hits + stats.disk_hits} cached, {stats.simulated} simulated"
    )
    print_resilience_summary()
    emit(f"total wall time: {wall:.0f} s")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.output != "-":
        suffix = "_sampled" if sampling else ""
        report_path = args.output or os.path.join(
            RESULTS_DIR, f"experiments_scale{scale_tag(scale)}{suffix}.txt"
        )
        with open(report_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"report written to {report_path}")

    write_bench("ok")
    checkpoint.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
