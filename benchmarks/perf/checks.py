"""Output checks for the perf benchmark.

Every run checks the simulator's outputs, not only its speed:

* every point completes, and its result satisfies the model's basic
  invariants (:func:`check_run_result`, :func:`check_serving_result`);
* a point re-run in process reproduces the canonical SHA-256 of the
  result the timed phase produced (:func:`check_same_hashes`);
* points that overlap a ``tests/golden/bitident.json`` pin reproduce the
  pinned hash (:func:`check_pins`).  The pin file is read at run time,
  so the benchmark never carries a copy of a hash.

Each check is counted in a :class:`CheckLog`; failures feed the run's
``failed`` count and ``ok_frac`` metric.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass
class CheckLog:
    """Counts of checks attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def canonical_sha256(result) -> str:
    """Canonical hash of a ``RunResult`` or a serving result dict.

    The same serialization ``tests/test_golden_runs.py`` pins:
    ``result_to_dict`` for run results, the dict itself for serving.
    """
    if not isinstance(result, dict):
        from repro.analysis.runner import result_to_dict

        result = result_to_dict(result)
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def describe(request) -> str:
    """Short point label: ``isa/NT/memory/policy`` plus scale and seed."""
    if hasattr(request, "arch"):
        return (
            f"{request.isa}/{request.arch}-{request.cores}x{request.contexts}T/"
            f"{request.memory}/{request.policy}@{request.scale:g}/s{request.seed}"
        )
    tag = "/sampled" if request.sampling else ""
    return (
        f"{request.isa}/{request.n_threads}T/{request.memory}/"
        f"{request.fetch_policy}{tag}@{request.scale:g}/s{request.seed}"
    )


def check_run_result(log: CheckLog, request, result) -> None:
    """A finished simulation point must have simulated something.

    Full-detail points must also have reached their completion target;
    sampled points must have measured at least one window.
    """
    name = describe(request)
    if request.sampling is None:
        log.check(
            result.cycles > 0
            and result.program_completions >= request.completions_target,
            f"{name}: cycles={result.cycles}, completions="
            f"{result.program_completions} < target {request.completions_target}",
        )
    else:
        log.check(
            result.cycles > 0 and bool(result.samples),
            f"{name}: sampled run measured no window",
        )


def check_serving_result(log: CheckLog, request, result: dict) -> None:
    """Every offered stream is either completed or rejected."""
    summary = result["summary"]
    log.check(
        summary["completed"] + summary["rejected"] == summary["offered"],
        f"{describe(request)}: completed {summary['completed']} + rejected "
        f"{summary['rejected']} != offered {summary['offered']}",
    )


def check_same_hashes(
    log: CheckLog, reference: dict, candidate: dict, what: str
) -> None:
    """Each point of ``candidate`` must hash like the same point of ``reference``."""
    for request, digest in candidate.items():
        log.check(
            reference.get(request) == digest,
            f"{describe(request)}: {what} hash differs",
        )


def check_pins(log: CheckLog, hashes: dict, pins: dict) -> int:
    """Compare the run's points against the bit-identity pins they overlap.

    ``hashes`` maps request → canonical hash; ``pins`` is the parsed
    ``tests/golden/bitident.json``.  Only pins whose request is one of
    the run's points are compared.  Returns the number of pins checked.
    """
    from repro.analysis.runner import RunRequest
    from repro.analysis.serving import ServingRequest

    checked = 0
    for section, request_type in (
        ("runs", RunRequest),
        ("serving_runs", ServingRequest),
    ):
        for name, pin in pins.get(section, {}).items():
            request = request_type(**pin["request"])
            if request not in hashes:
                continue
            checked += 1
            log.check(
                hashes[request] == pin["result_sha256"],
                f"pin {name}: hash {hashes[request][:12]} != pinned "
                f"{pin['result_sha256'][:12]}",
            )
    return checked
