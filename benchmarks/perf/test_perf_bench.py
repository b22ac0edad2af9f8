"""Tests for the perf benchmark's tracer, checks and metric set.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  Work is
shrunk through function arguments (a smaller copy of a workload), never
through command-line flags.
"""

import copy
import dataclasses
import importlib
import itertools
import json
import re
import sys

import pytest

import layers
import measure
import workloads
from checks import CheckLog, canonical_sha256, check_pins
from layers import Target, Tracer, traced

import repro.analysis.runner as runner_mod
from repro.analysis.runner import RunRequest


class Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return 1


TOY_TARGETS = (
    Target("toy.outer", f"{__name__}:Toy", "outer", span=True),
    Target("toy.inner", f"{__name__}:Toy", "inner"),
)


def test_self_time_arithmetic_on_nested_toy():
    # Each clock read advances one tick: origin 0, outer starts at 1,
    # the two inner calls take 2→3 and 4→5, outer ends at 6.
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with traced(tracer, TOY_TARGETS):
        assert Toy().outer() == "done"
    assert tracer.calls == {
        ("toy.outer", None): [1, 5.0, 2.0],
        ("toy.inner", "toy.outer"): [2, 2.0, 0.0],
    }
    assert tracer.self_time({"toy.outer"}) == 3.0
    assert tracer.self_time({"toy.inner"}) == 2.0
    # Nested calls inside the same group are not counted twice.
    assert tracer.inclusive({"toy.outer", "toy.inner"}) == 5.0
    assert tracer.count({"toy.inner"}) == 2
    assert tracer.spans == [
        {"id": 1, "parent": None, "name": "toy.outer", "start": 1.0, "end": 6.0}
    ]


_INHERITED = object()


def _attribute_snapshot() -> dict:
    """Every attribute the tracer may patch, by (owner, attr)."""
    snapshot = {}
    for target in layers.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            owner = getattr(module, class_name)
            snapshot[(target.owner, target.attr)] = owner.__dict__.get(
                target.attr, _INHERITED
            )
            continue
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and hasattr(loaded, target.attr):
                snapshot[(name, target.attr)] = getattr(loaded, target.attr)
    return snapshot


def test_traced_run_restores_original_attributes():
    before = _attribute_snapshot()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            during = _attribute_snapshot()
            raise RuntimeError("leave the traced block abnormally")
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert any(during[key] is not before[key] for key in before)
    # A method the class only inherited must be inherited again.
    from repro.memory.perfect import PerfectMemory

    assert "warm" not in PerfectMemory.__dict__


def test_traced_and_untraced_hashes_are_identical():
    request = RunRequest("mom", 2, memory="conventional", scale=2e-5)
    plain = canonical_sha256(runner_mod.execute_request(request))
    tracer = Tracer()
    with traced(tracer):
        observed = canonical_sha256(runner_mod.execute_request(request))
    assert observed == plain
    assert tracer.count(layers.STEP) > 0 and tracer.count(layers.ACCESS) > 0


def _small_report(pins=1):
    # The 1-thread sweep overlaps one pin, mmx/1T/conventional/rr.
    return dataclasses.replace(
        workloads.WORKLOADS["report-2e-5"], threads=(1,), min_rounds=1, setups=1,
        pins=pins,
    )


def test_wrong_pin_lowers_ok_frac(tmp_path, monkeypatch):
    with open(measure.PINS) as handle:
        pins = json.load(handle)
    wrong = copy.deepcopy(pins)
    wrong["runs"]["mmx/1T/conventional/rr"]["result_sha256"] = "0" * 64
    wrong_path = tmp_path / "bitident.json"
    wrong_path.write_text(json.dumps(wrong))
    monkeypatch.setattr(measure, "PINS", str(wrong_path))

    result = measure.measure(
        "report-2e-5", 0, 0, False, workdir=str(tmp_path), workload=_small_report()
    )
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0

    # The same point passes against the real pin.
    request = RunRequest(**pins["runs"]["mmx/1T/conventional/rr"]["request"])
    hashes = {request: canonical_sha256(runner_mod.execute_request(request))}
    log = CheckLog()
    assert check_pins(log, hashes, pins) == 1 and log.failed == 0


def test_pin_that_stops_overlapping_fails(tmp_path):
    # Expecting a second pin stands for one whose request drifted away.
    result = measure.measure(
        "report-2e-5", 0, 0, False, workdir=str(tmp_path), workload=_small_report(pins=2)
    )
    assert result["failed"] == 1 and result["metrics"]["ok_frac"]["value"] < 1.0


def test_every_printed_metric_is_declared_and_every_declared_metric_printed(tmp_path):
    spec = measure.declared()
    assert list(workloads.WORKLOADS) == spec["workloads"]
    labels = {target.label for target in layers.TARGETS}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.required) <= labels, workload.name
    small = dataclasses.replace(
        workloads.WORKLOADS["detail-1e-4"],
        scale=2e-5,
        points=(("mmx", 1, "perfect"), ("mom", 2, "conventional")),
        min_rounds=2,
        setups=1,
        pins=0,
        required=("core.SMTProcessor.step", "memory.ConventionalHierarchy.access"),
    )
    untraced = measure.measure(
        small.name, 3, 0, False, workdir=str(tmp_path), workload=small
    )
    traced_run = measure.measure(
        small.name, 3, 0, True, workdir=str(tmp_path), workload=small
    )
    assert untraced["correct"] and traced_run["correct"]
    # run.py adds peak_rss_mb once the child process has exited.
    assert set(untraced["metrics"]) | {"peak_rss_mb"} == set(spec["end_to_end"])
    assert set(traced_run["metrics"]) == set(spec["per_layer"])
    assert (tmp_path / "trace" / f"trace-{small.name}.json").exists()
    for name in [*spec["end_to_end"], *spec["per_layer"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert traced_run["metrics"]["core.steps"]["value"] > 0
    assert untraced["metrics"]["paper_err_pct"]["value"] > 0
