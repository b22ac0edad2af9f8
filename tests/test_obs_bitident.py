"""Bit-identity: `observe=None` runs are byte-identical to the pre-
observability tree.

``tests/golden/bitident.json`` pins, from the commit immediately before
the observability layer landed: the canonical ``RunResult`` JSON hash of
four representative runs, their pinned-version ``RunRequest``
fingerprints, and the headline counters.  Any observability hook that
perturbs a disabled run — an extra stat, a reordered dict key, a
serialized ``None`` — fails here with the exact run that diverged.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

from repro.analysis.runner import (
    RESULT_FORMAT,
    RunRequest,
    execute_request,
    result_from_dict,
    result_to_dict,
)
from repro.core.metrics import RunResult

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "bitident.json"
)

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def request_of(entry: dict) -> RunRequest:
    payload = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in entry["request"].items()
    }
    return RunRequest(**payload)


def canonical_sha256(result) -> str:
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_unobserved_run_matches_pre_observability_bytes(name):
    entry = GOLDEN["runs"][name]
    result = execute_request(request_of(entry))
    assert result.cycles == entry["cycles"], name
    assert result.committed_instructions == entry["committed_instructions"]
    assert result.committed_equivalent == pytest.approx(
        entry["committed_equivalent"], abs=0, rel=0
    )
    assert canonical_sha256(result) == entry["result_sha256"], (
        f"{name}: RunResult JSON diverged from the pre-observability tree"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_fingerprints_unchanged_under_pinned_version(name):
    # Fingerprints mix in code_version(), which necessarily moves every
    # PR; pinning the version isolates the request schema + canonical
    # serialization, which must NOT move (the cache would silently fork
    # if e.g. RunRequest grew an `observe` field).
    entry = GOLDEN["runs"][name]
    fingerprint = request_of(entry).fingerprint(GOLDEN["pinned_version"])
    assert fingerprint == entry["fingerprint_pinned"]


def test_result_format_unchanged():
    assert RESULT_FORMAT == 2


def test_run_request_has_no_observe_field():
    # Observability is per-SMTConfig, never per-request: cached results
    # must be shared between observed and unobserved callers.
    assert "observe" not in {f.name for f in fields(RunRequest)}


def test_unobserved_result_serializes_without_observability_key():
    entry = GOLDEN["runs"]["mmx/1T/conventional/rr"]
    result = execute_request(request_of(entry))
    payload = result_to_dict(result)
    assert "observability" not in payload
    restored = result_from_dict(payload)
    assert restored.observability is None
    assert result_to_dict(restored) == payload


def test_observed_result_round_trips_snapshot():
    entry = GOLDEN["runs"]["mmx/1T/conventional/rr"]
    result = execute_request(request_of(entry))
    observed = RunResult(
        **{**result_to_dict(result), "memory": result.memory,
           "observability": {"metrics": {}, "records": 0,
                             "mem_events": 0, "dropped_records": 0,
                             "dropped_events": 0}},
    )
    payload = result_to_dict(observed)
    assert payload["observability"]["records"] == 0
    assert result_from_dict(payload).observability == observed.observability


def test_plain_run_never_imports_the_obs_package():
    # The zero-overhead contract starts at import time: a run without
    # observe= must not even load repro.obs (the lazy import in the
    # core is the only edge into it).  Through the runner, repro.verify
    # loads anyway (analysis/resilience.py imports InvariantViolation);
    # a processor driven directly loads neither it nor repro.analysis,
    # and from repro.isa only what traces are made of.
    through_runner = (
        "import sys\n"
        "from repro.analysis.runner import RunRequest, execute_request\n"
        "execute_request(RunRequest(isa='mmx', n_threads=1,"
        " memory='perfect', fetch_policy='rr', scale=2e-5))\n"
        "assert not any(m.startswith('repro.obs') for m in sys.modules),"
        " sorted(m for m in sys.modules if m.startswith('repro.obs'))\n"
    )
    direct = (
        "import sys\n"
        "from repro.core import SMTConfig, SMTProcessor\n"
        "from repro.memory import ConventionalHierarchy\n"
        "from repro.workloads import build_workload_traces\n"
        "SMTProcessor(SMTConfig(isa='mmx', n_threads=2),"
        " ConventionalHierarchy(), build_workload_traces('mmx', scale=2e-5),"
        " completions_target=2).run()\n"
        "layers = ('repro.obs', 'repro.verify', 'repro.analysis')\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(layers))\n"
        "assert not loaded, loaded\n"
        "isa = sorted(m for m in sys.modules if m.startswith('repro.isa.'))\n"
        "assert isa == ['repro.isa.instruction', 'repro.isa.opcodes',"
        " 'repro.isa.registers'], isa\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    for script in (through_runner, direct):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


def test_golden_requests_cover_both_hierarchies_and_sampling():
    requests = [request_of(e) for e in GOLDEN["runs"].values()]
    assert {r.memory for r in requests} >= {
        "conventional", "decoupled", "perfect",
    }
    assert {r.isa for r in requests} == {"mmx", "mom"}
    assert any(r.sampling for r in requests)
    assert all(asdict(r)["scale"] == GOLDEN["scale"] for r in requests)
