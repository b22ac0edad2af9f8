#!/usr/bin/env python3
"""Chaos smoke test: the sweep must survive injected faults, bit-identically.

Runs ``scripts/run_experiments.py`` four times against scratch cache
directories and asserts the resilience layer's headline guarantees:

1. **baseline** — a fault-free cold sweep records the reference report.
2. **chaos cold** — the same sweep under deterministic fault injection
   (default: 20 % worker crashes, 10 % hangs killed by the ``--timeout``
   watchdog, 25 % corrupted cache writes) must complete unattended with
   a bit-identical report, and its provenance must show faults were
   actually handled (retries/timeouts/pool restarts > 0).
3. **chaos warm** — rerunning on the chaos cache with injection off
   must quarantine the corrupt entries, recompute only those points,
   match the reference report again, and leave a cache with zero
   corrupt entries.
4. **SIGKILL resume** — a fresh sweep is SIGKILLed mid-flight; the rerun
   must serve every already-completed point from the cache (verified
   via the run-provenance counters), resume from the figure checkpoint,
   match the reference report, and leave no corrupt entries.

Reports are compared after stripping the provenance lines that
legitimately differ between runs (wall time, cached/simulated split);
every table byte must match.

Exit status: 0 when all phases pass, 1 on any violated guarantee.

Usage:  python scripts/chaos_smoke.py [--scale 2e-5] [--jobs 2]
            [--timeout 30] [--crash 0.2] [--hang 0.1] [--corrupt 0.25]
            [--seed 7] [--kill-after N] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.runner import verify_cache  # noqa: E402
from repro.verify.faultinject import ENV_VAR, FaultPlan  # noqa: E402

RUN_EXPERIMENTS = os.path.join(REPO_ROOT, "scripts", "run_experiments.py")
BENCH_PATH = os.path.join(REPO_ROOT, "results", "BENCH_experiments.json")

#: Report lines that legitimately vary between runs of the same sweep.
_VOLATILE_PREFIXES = ("runs:", "total wall time")


def canonical_report(path: str) -> str:
    """The report with run-to-run provenance lines stripped."""
    lines = []
    with open(path) as handle:
        for line in handle:
            if line.startswith(_VOLATILE_PREFIXES):
                continue
            lines.append(line)
    return "".join(lines)


def base_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env.pop(ENV_VAR, None)
    return env


def sweep_command(args, cache_dir: str, output: str, extra=()) -> list[str]:
    return [
        sys.executable, RUN_EXPERIMENTS,
        "--scale", repr(args.scale),
        "--jobs", str(args.jobs),
        "--cache-dir", cache_dir,
        "--output", output,
        *extra,
    ]


def run_sweep(args, cache_dir: str, output: str, env=None, extra=()) -> dict:
    """Run one sweep to completion; returns the BENCH provenance dict."""
    command = sweep_command(args, cache_dir, output, extra)
    proc = subprocess.run(command, env=env or base_env(), cwd=REPO_ROOT)
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: sweep exited with status {proc.returncode}: "
            f"{' '.join(command)}"
        )
    with open(BENCH_PATH) as handle:
        return json.load(handle)


def count_run_entries(cache_dir: str) -> int:
    """Completed simulation points on disk (not checkpoint/artifacts)."""
    if not os.path.isdir(cache_dir):
        return 0
    return sum(
        1
        for name in os.listdir(cache_dir)
        if name.endswith(".json")
        and not name.startswith("artifact-")
        and name != "sweep-checkpoint.json"
    )


def check(condition: bool, message: str, failures: list) -> None:
    tag = "ok" if condition else "FAIL"
    print(f"  [{tag}] {message}")
    if not condition:
        failures.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=2e-5)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-run watchdog budget for the chaos phase (default 30)",
    )
    parser.add_argument("--crash", type=float, default=0.2)
    parser.add_argument("--hang", type=float, default=0.1)
    parser.add_argument("--corrupt", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--kill-after", type=int, default=12, metavar="N",
        help="SIGKILL the resume-phase sweep once N points are cached "
        "(default 12 — past the first figure, so the checkpoint "
        "resume path is exercised too)",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory for inspection",
    )
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="chaos-smoke-")
    failures: list[str] = []
    try:
        baseline_cache = os.path.join(scratch, "cache-baseline")
        chaos_cache = os.path.join(scratch, "cache-chaos")
        resume_cache = os.path.join(scratch, "cache-resume")
        baseline_report = os.path.join(scratch, "baseline.txt")
        chaos_report = os.path.join(scratch, "chaos.txt")
        warm_report = os.path.join(scratch, "chaos-warm.txt")
        resume_report = os.path.join(scratch, "resume.txt")

        print(f"== phase 1: fault-free baseline (scale {args.scale:g}) ==")
        run_sweep(args, baseline_cache, baseline_report)
        reference = canonical_report(baseline_report)

        print("\n== phase 2: cold sweep under fault injection ==")
        plan = FaultPlan(
            seed=args.seed,
            crash_fraction=args.crash,
            hang_fraction=args.hang,
            corrupt_fraction=args.corrupt,
            hang_seconds=max(4 * args.timeout, 120.0),
        )
        chaos_env = base_env()
        chaos_env[ENV_VAR] = plan.to_json()
        bench = run_sweep(
            args, chaos_cache, chaos_report,
            env=chaos_env,
            extra=("--timeout", repr(args.timeout)),
        )
        stats = bench["runner"]
        handled = (
            stats["retries"] + stats["timeouts"] + stats["pool_breaks"]
        )
        print(
            f"  chaos provenance: {stats['retries']} retries, "
            f"{stats['timeouts']} timeouts, {stats['pool_breaks']} pool "
            f"restarts, {stats['degraded']} degradations"
        )
        check(
            canonical_report(chaos_report) == reference,
            "chaos report is bit-identical to the fault-free report",
            failures,
        )
        check(
            handled > 0,
            "injected faults were actually handled (retries+timeouts+breaks > 0)",
            failures,
        )
        check(
            stats["failed_points"] == 0,
            "no point failed permanently under injection",
            failures,
        )

        print("\n== phase 3: warm rerun quarantines injected corruption ==")
        bench = run_sweep(args, chaos_cache, warm_report)
        stats = bench["runner"]
        print(
            f"  warm provenance: {stats['disk_hits']} disk hits, "
            f"{stats['simulated']} resimulated, "
            f"{stats['corrupt_quarantined']} quarantined"
        )
        check(
            canonical_report(warm_report) == reference,
            "warm-rerun report is bit-identical to the fault-free report",
            failures,
        )
        check(
            stats["corrupt_quarantined"] > 0,
            "corrupted cache entries were quarantined (not silently eaten)",
            failures,
        )
        check(
            stats["corrupt_quarantined"] == stats["simulated"],
            "exactly the quarantined entries were resimulated",
            failures,
        )
        scan = verify_cache(chaos_cache)
        check(
            not scan["corrupt"],
            f"post-quarantine cache holds no corrupt entries "
            f"({scan['ok']} valid, {len(scan['quarantined'])} quarantined files)",
            failures,
        )

        print("\n== phase 4: SIGKILL mid-sweep, then resume ==")
        command = sweep_command(args, resume_cache, resume_report)
        # Own session so the SIGKILL can take out the whole process
        # group: killing only the parent leaves its pool workers as
        # orphans that hold inherited pipes (and CI logs) open forever.
        child = subprocess.Popen(
            command, env=base_env(), cwd=REPO_ROOT, start_new_session=True
        )
        deadline = time.monotonic() + 600
        while (
            count_run_entries(resume_cache) < args.kill_after
            and child.poll() is None
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        killed = child.poll() is None
        if killed:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            print(f"  killed sweep (pgid {child.pid}) with SIGKILL")
        else:
            print("  note: sweep finished before the kill threshold")
        survivors = count_run_entries(resume_cache)
        print(f"  {survivors} completed points survive on disk")
        scan = verify_cache(resume_cache)
        check(
            not scan["corrupt"],
            "no torn cache entries after SIGKILL (atomic writes)",
            failures,
        )
        bench = run_sweep(args, resume_cache, resume_report)
        stats = bench["runner"]
        print(
            f"  resume provenance: {stats['disk_hits']} disk hits, "
            f"{stats['simulated']} simulated, resumed figures: "
            f"{bench['resumed_figures']}"
        )
        check(
            canonical_report(resume_report) == reference,
            "resumed-sweep report is bit-identical to the fault-free report",
            failures,
        )
        check(
            stats["disk_hits"] >= survivors,
            f"every pre-kill point was served from cache "
            f"(disk_hits {stats['disk_hits']} >= {survivors})",
            failures,
        )
        check(
            stats["corrupt_quarantined"] == 0,
            "resume quarantined nothing (SIGKILL left no corrupt entries)",
            failures,
        )
        check(
            not killed
            or bool(bench["resumed_figures"])
            or survivors < args.kill_after,
            "figure checkpoint was picked up by the resumed sweep",
            failures,
        )

        print()
        if failures:
            print(f"chaos smoke: {len(failures)} guarantee(s) violated:")
            for message in failures:
                print(f"  - {message}")
            return 1
        print("chaos smoke: all guarantees held")
        return 0
    finally:
        if args.keep:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
