"""Golden-run regression suite: headline ratios stay inside their bands.

``tests/golden/<experiment>.json``, one file per entry of
``repro.analysis.goldens.EXPERIMENTS`` (Tables 3 and 4, figures 4, 5,
6, 8 and 9, and the serving scenario), freeze the experiments' headline
metrics at smoke scale.  Each test re-measures one experiment and fails
with a golden/measured/paper diff table when any metric leaves its
tolerance band.  Regenerate after a *deliberate* modelling change with
``scripts/update_goldens.py``.  ``tests/golden/bitident.json`` holds
the bit-identity pins the rest of this module checks.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.goldens import (
    EXPERIMENTS,
    GOLDEN_SCALE,
    GOLDEN_THREADS,
    allowed_band,
    check_experiment,
    compare_metrics,
    compute_golden_metrics,
    golden_path,
)
from repro.analysis.runner import Runner

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def runner():
    # One runner for the whole module: overlapping simulation points
    # between experiments are memoized in process.
    return Runner()


def load_golden(experiment):
    with open(golden_path(experiment, GOLDEN_DIR)) as handle:
        return json.load(handle)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_golden_file_is_well_formed(experiment):
    document = load_golden(experiment)
    assert document["experiment"] == experiment
    assert document["scale"] == GOLDEN_SCALE
    assert document["threads"] == list(GOLDEN_THREADS)
    assert document["metrics"], "a golden file must lock at least one metric"
    for name, metric in document["metrics"].items():
        assert allowed_band(metric) > 0, (
            f"{experiment}:{name} has no tolerance band — "
            "an exact-match golden breaks on any legitimate drift"
        )


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_headline_metrics_stay_inside_golden_bands(experiment, runner):
    failures, report = check_experiment(experiment, GOLDEN_DIR, runner)
    assert not failures, (
        f"{len(failures)} golden metric(s) moved out of band "
        f"({', '.join(failures)}).  If the modelling change is deliberate, "
        f"regenerate with scripts/update_goldens.py.\n{report}"
    )


def test_table3_is_deterministic_and_tight(runner):
    # The Table 3 metrics are pure trace-generator functions: two
    # computations in one process must agree exactly, well inside any
    # band.
    first = compute_golden_metrics("table3", runner)
    second = compute_golden_metrics("table3", runner)
    assert first == second


def test_golden_directory_holds_no_orphan_file():
    # A golden file no test reads would linger unchecked.
    expected = ["bitident.json"] + [
        os.path.basename(golden_path(experiment, GOLDEN_DIR))
        for experiment in EXPERIMENTS
    ]
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(expected)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown golden experiment"):
        compute_golden_metrics("fig99")


# ----- chunked sampled pins -------------------------------------------------


def load_bitident():
    with open(os.path.join(GOLDEN_DIR, "bitident.json")) as handle:
        return json.load(handle)


def canonical_sha256(result):
    from repro.analysis.runner import result_to_dict

    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(load_bitident()["chunked_runs"]))
def test_chunked_sampled_runs_reproduce_pinned_hashes(name):
    """A multi-chunk sampled run must reproduce its pinned hash exactly.

    The sampled pin in ``runs`` runs a single chunk; these
    configurations split into several, so they pin chunk boundaries,
    start-state reconstruction and the chunk merge: same samples, same
    CI inputs, same everything.
    """
    from repro.analysis.runner import (
        RunRequest,
        execute_request,
        workload_traces,
    )
    from repro.core.smt import sampled_chunk_count

    pinned = load_bitident()["chunked_runs"][name]
    request = RunRequest(**pinned["request"])
    traces = workload_traces(request.isa, request.scale, request.seed)
    n_chunks = sampled_chunk_count(
        request.sampling, traces, request.completions_target
    )
    assert n_chunks == pinned["n_chunks"], (
        "the pinned configuration no longer chunks as recorded — the "
        "chunked pins must exercise a genuinely multi-chunk schedule"
    )
    assert n_chunks > 1

    result = execute_request(request)
    assert canonical_sha256(result) == pinned["result_sha256"]
    assert result.cycles == pinned["cycles"]
    assert result.committed_instructions == pinned["committed_instructions"]


def test_chunked_pins_pin_their_fingerprints():
    # Frozen under the pinned version so unrelated source edits don't
    # churn this file — only a deliberate request-schema change does.
    document = load_bitident()
    from repro.analysis.runner import RunRequest

    for name, pinned in document["chunked_runs"].items():
        request = RunRequest(**pinned["request"])
        assert (
            request.fingerprint(document["pinned_version"])
            == pinned["fingerprint_pinned"]
        ), name


# ----- serving bit-identity pins ---------------------------------------------


@pytest.mark.parametrize("name", sorted(load_bitident()["serving_runs"]))
def test_serving_run_reproduces_pinned_hash(name):
    """A serving result is a pure function of its request: re-executing
    the pinned request must reproduce the recorded canonical JSON hash
    bit for bit."""
    from repro.analysis.serving import ServingRequest, execute_serving_request

    pinned = load_bitident()["serving_runs"][name]
    request = ServingRequest(**pinned["request"])
    result = execute_serving_request(request)
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == pinned["result_sha256"]
    assert result["summary"]["cycles"] == pinned["cycles"]
    assert result["summary"]["completed"] == pinned["completed"]
    assert result["summary"]["missed"] == pinned["missed"]


def test_serving_pins_pin_their_fingerprints():
    # Frozen under pinned version strings so unrelated source edits do
    # not churn this file — only a deliberate request-schema change does.
    from repro.analysis.serving import ServingRequest

    document = load_bitident()
    for name, pinned in document["serving_runs"].items():
        request = ServingRequest(**pinned["request"])
        assert (
            request.fingerprint(
                document["pinned_version"],
                document["serving_pinned_version"],
            )
            == pinned["fingerprint_pinned"]
        ), name


# ----- trace-content pins ----------------------------------------------------


def trace_sha256(trace):
    """SHA-256 of a trace's canonical JSON: its header fields and every
    ``Instruction`` slot of every instruction, in trace order."""
    from repro.isa.instruction import Instruction

    document = {
        "name": trace.name,
        "isa": trace.isa,
        "mmx_equivalent": trace.mmx_equivalent,
        "instructions": [
            [getattr(inst, slot) for slot in Instruction.__slots__]
            for inst in trace.instructions
        ],
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(load_bitident()["trace_runs"]))
def test_trace_content_reproduces_pinned_hash(name):
    """The trace compiler is a pure function of (program, ISA, scale,
    seed): every pinned trace must come back byte for byte."""
    from repro.tracegen.program import build_program_trace

    pinned = load_bitident()["trace_runs"][name]
    where = (
        f"{pinned['program']}/{pinned['isa']} at scale "
        f"{pinned['scale']:g}, seed {pinned['seed']}"
    )
    trace = build_program_trace(
        pinned["program"], pinned["isa"],
        scale=pinned["scale"], seed=pinned["seed"],
    )
    assert len(trace) == pinned["instructions"], (
        f"trace {where} moved: {len(trace)} instructions, "
        f"pinned {pinned['instructions']}"
    )
    assert trace_sha256(trace) == pinned["sha256"], (
        f"trace {where} moved: same length, different content"
    )


# ----- the comparator itself -------------------------------------------------


def metric(value, paper=None, rel_tol=None, abs_tol=None):
    return {"value": value, "paper": paper, "rel_tol": rel_tol,
            "abs_tol": abs_tol}


def test_compare_flags_out_of_band_and_names_the_metric():
    golden = {
        "speedup": metric(2.0, paper=2.02, rel_tol=0.02),
        "gain": metric(0.05, abs_tol=0.02),
    }
    measured = {
        "speedup": metric(2.2),   # +10% — outside the 2% band
        "gain": metric(0.06),     # inside the ±0.02 band
    }
    failures, report = compare_metrics(golden, measured)
    assert failures == ["speedup"]
    assert "FAIL" in report and "PASS" in report
    # The report reads as a paper-vs-measured diff, not a bare assert.
    assert "golden" in report and "paper" in report
    assert "paper=   2.020" in report


def test_compare_flags_missing_and_extra_metrics():
    failures, report = compare_metrics(
        {"only_golden": metric(1.0, rel_tol=0.1)},
        {"only_measured": metric(1.0, rel_tol=0.1)},
    )
    assert sorted(failures) == ["only_golden", "only_measured"]
    assert "MISSING" in report


def test_band_semantics():
    assert allowed_band(metric(2.0, rel_tol=0.02)) == pytest.approx(0.04)
    assert allowed_band(metric(-2.0, rel_tol=0.02)) == pytest.approx(0.04)
    assert allowed_band(metric(0.05, abs_tol=0.02)) == pytest.approx(0.02)
    # abs_tol wins when both are present (gains sit near zero, where a
    # relative band collapses to nothing).
    assert allowed_band(metric(0.0, rel_tol=0.5, abs_tol=0.01)) == 0.01
    assert allowed_band(metric(1.0)) == 0.0
