"""Determinism audit: no unseeded randomness, no ordering dependence.

The whole harness rests on runs being exactly reproducible — the result
cache, the bit-identity suite, the golden runs and the bit-identical
re-run of points a dead worker lost all assume it (policy in
``docs/TESTING.md``).  These tests audit the two ways determinism rots:

* **unseeded randomness / wall-clock leaks** — the ``DET-*`` family of
  the repo linter (:mod:`repro.verify.codelint`) runs its AST analysis
  over the simulation packages: module-level RNG calls, clock reads,
  entropy sources (including aliased and laundered references, which
  the old regex scan could not see) and set-iteration-order leaks.
  Randomness is allowed only as a seeded ``random.Random(seed)``
  instance in the trace generator.
* **ordering dependence** — the same run executed under different
  ``PYTHONHASHSEED`` values must produce byte-identical canonical
  results; iteration over a ``set``/``dict`` whose order leaks into the
  simulation shows up here as a hash-seed-dependent divergence.

The static half delegates to codelint so the audit, the ``lint`` CI
step and ``scripts/verify_tool.py lint`` enforce one rule set with one
suppression mechanism; rule catalog in ``docs/VERIFY.md``.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.verify import codelint

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src", "repro")
)
REPO = os.path.dirname(os.path.dirname(SRC))


def det_diagnostics():
    diagnostics, files = codelint.lint_repo(REPO, families=("DET",))
    assert len(files) > 50, "codelint found implausibly few files"
    return diagnostics


def test_simulation_packages_are_entropy_free():
    violations = [
        str(d) for d in det_diagnostics() if d.code != "DET-SET-ORDER"
    ]
    assert not violations, (
        "simulation code reached for unseeded entropy or the wall clock "
        "(seeded random.Random instances are the only sanctioned "
        "randomness — docs/TESTING.md):\n" + "\n".join(violations)
    )


def test_rng_construction_is_always_seeded():
    # Every random.Random(...) in the tree must receive an explicit
    # seed expression; a bare random.Random() reseeds from the OS.
    violations = [
        str(d)
        for d in det_diagnostics()
        if d.code == "DET-UNSEEDED-RANDOM"
    ]
    assert not violations, (
        "unseeded random.Random() found:\n" + "\n".join(violations)
    )


def test_set_iteration_order_never_observed():
    violations = [
        str(d) for d in det_diagnostics() if d.code == "DET-SET-ORDER"
    ]
    assert not violations, (
        "simulation code iterates a set (arbitrary, hash-seed-dependent "
        "order); sort first or use a list/dict:\n" + "\n".join(violations)
    )


def test_obs_package_reads_no_wall_clock_outside_profiler():
    # The profiler is the one sanctioned clock consumer (its output is
    # declared volatile and never enters reports or cache keys); it
    # carries the repo's only codelint file-suppression, so DET-CLOCK
    # must report clean across obs/ — and the audit double-checks the
    # suppression stays confined to profile.py.
    clock_leaks = [
        str(d) for d in det_diagnostics() if d.code == "DET-CLOCK"
    ]
    assert not clock_leaks, "\n".join(clock_leaks)

    profile = codelint.collect_repo_files(REPO).get("obs/profile.py")
    assert profile is not None
    assert profile.suppressed("DET-CLOCK", 1), (
        "obs/profile.py lost its sanctioned DET-CLOCK file suppression"
    )


_HASHSEED_CHILD = """
import hashlib, json
from repro.analysis.runner import RunRequest, execute_request, result_to_dict
result = execute_request(RunRequest(
    isa="mom", n_threads=2, memory="conventional", fetch_policy="rr",
    scale=2e-5,
))
blob = json.dumps(result_to_dict(result), sort_keys=True,
                  separators=(",", ":"))
print(hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "31337"])
def test_results_are_hashseed_independent(hashseed, tmp_path):
    # Different PYTHONHASHSEED values randomize set/dict iteration
    # order; a simulation outcome that depends on it diverges here.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(SRC, "..")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_CHILD],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.strip()
    reference_path = tmp_path.parent / "hashseed-reference.txt"
    # First parametrization writes the reference; the rest must match.
    try:
        with open(reference_path, "x") as handle:
            handle.write(digest)
    except FileExistsError:
        with open(reference_path) as handle:
            assert digest == handle.read(), (
                f"result hash changed under PYTHONHASHSEED={hashseed}: "
                "a set/dict iteration order is leaking into the simulation"
            )


def test_observer_streams_are_run_to_run_identical():
    # Two observed runs of the same config in one process: the event
    # stream and the metrics snapshot must match element for element
    # (id()-keyed bookkeeping must not leak allocation order).
    from repro.core import SMTConfig, SMTProcessor
    from repro.memory import ConventionalHierarchy
    from repro.tracegen import build_program_trace

    def observed_run():
        traces = [
            build_program_trace("jpegenc", "mom", scale=2e-5),
            build_program_trace("gsmdec", "mom", scale=2e-5),
        ]
        processor = SMTProcessor(
            SMTConfig(isa="mom", n_threads=4, observe=True),
            ConventionalHierarchy(),
            traces,
            completions_target=1,
            warmup_fraction=0.0,
        )
        result = processor.run()
        observer = processor.observer
        return (
            [record.to_dict() for record in observer.records],
            observer.mem_events,
            result.observability["metrics"],
        )

    first, second = observed_run(), observed_run()
    assert first[0] == second[0], "instruction records diverged"
    assert first[1] == second[1], "memory events diverged"
    assert first[2] == second[2], "metrics snapshot diverged"
    digest = hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()
    ).hexdigest()
    assert digest == hashlib.sha256(
        json.dumps(second, sort_keys=True).encode()
    ).hexdigest()
