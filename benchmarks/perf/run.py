#!/usr/bin/env python3
"""Perf benchmark: host cost of the reproduction, end to end and per layer.

Runs each workload in a fresh child interpreter (``measure.py``), reads
the child's peak memory once it and its pool workers have exited, and
prints every metric by name with its unit.  The last line of output is
the last workload's JSON result::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Usage::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR]

Without ``--workload`` every workload runs in turn.  ``--trace 1``
makes a traced run instead, which reports the per-layer metrics and
writes a Perfetto-readable trace and a layer table into ``--trace-dir``
(default ``.perf-work/trace`` under the checkout).  The exit status is
non-zero if any run fails or any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

from measure import HERE, ROOT, WORKDIR, declared

#: A run must end within 180 s; the child is killed a little before.
CHILD_TIMEOUT = 170.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(name: str, args) -> bool:
    """Measure one workload in a fresh child; True if it ran and passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", args.trace_dir,
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # The child leads its own process group, so a timeout also stops
    # its pool workers.
    watchdog = threading.Timer(CHILD_TIMEOUT, _kill_group, (child.pid,))
    watchdog.start()
    last = None
    try:
        for line in child.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
    finally:
        child.stdout.close()
        # wait4 reports the child's peak RSS, including the pool workers
        # it waited for.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
        _kill_group(child.pid)
    try:
        result = json.loads(last) if last else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        if last:
            print(last)
        print(
            f"{name}: no result (exit status {child.returncode})", file=sys.stderr
        )
        return False
    if not args.trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024, "unit": "MB"
        }
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return bool(result["correct"]) and child.returncode == 0


def main(argv=None) -> int:
    spec = declared()
    names = spec["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=os.path.join(WORKDIR, "trace"))
    args = parser.parse_args(argv)
    ok = True
    for name in [args.workload] if args.workload else names:
        ok = run_workload(name, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
