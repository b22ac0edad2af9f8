"""The deterministic fault-injection harness."""

import json
import os
import time

import pytest

from repro.verify import faultinject
from repro.verify.faultinject import (
    CORRUPT_PAYLOAD,
    ENV_VAR,
    FaultPlan,
    SimulatedWorkerCrash,
)


@pytest.fixture(autouse=True)
def clean_plan():
    """No plan leaks into (or out of) any test."""
    faultinject.install(None)
    yield
    faultinject.install(None)


class TestFaultPlan:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(hang_fraction=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_fraction=0.6, hang_fraction=0.6)

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, crash_fraction=0.3, hang_fraction=0.3)
        again = FaultPlan(seed=3, crash_fraction=0.3, hang_fraction=0.3)
        for i in range(200):
            fingerprint = f"fp{i}"
            assert plan.execution_fault(fingerprint, 0) == again.execution_fault(
                fingerprint, 0
            )
            assert plan.corrupts_cache(fingerprint, 0) == again.corrupts_cache(
                fingerprint, 0
            )

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, crash_fraction=0.5)
        b = FaultPlan(seed=2, crash_fraction=0.5)
        decisions_a = [a.execution_fault(f"fp{i}", 0) for i in range(100)]
        decisions_b = [b.execution_fault(f"fp{i}", 0) for i in range(100)]
        assert decisions_a != decisions_b

    def test_fractions_are_approximately_honored(self):
        plan = FaultPlan(
            seed=0, crash_fraction=0.2, hang_fraction=0.1, corrupt_fraction=0.3
        )
        n = 4000
        crashes = hangs = corrupts = 0
        for i in range(n):
            fault = plan.execution_fault(f"fp{i}", 0)
            crashes += fault == "crash"
            hangs += fault == "hang"
            corrupts += plan.corrupts_cache(f"fp{i}", 0)
        assert 0.17 < crashes / n < 0.23
        assert 0.08 < hangs / n < 0.12
        assert 0.27 < corrupts / n < 0.33

    def test_faults_fire_only_on_the_chosen_attempt(self):
        plan = FaultPlan(crash_fraction=1.0, corrupt_fraction=1.0, fault_attempt=1)
        assert plan.execution_fault("fp", 0) is None
        assert plan.execution_fault("fp", 1) == "crash"
        assert plan.execution_fault("fp", 2) is None
        assert not plan.corrupts_cache("fp", 0)
        assert plan.corrupts_cache("fp", 1)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, crash_fraction=0.25, hang_seconds=12.5)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestActivation:
    def test_no_plan_by_default(self):
        assert faultinject.active_plan() is None

    def test_install_sets_and_clears_environment(self):
        plan = FaultPlan(seed=4, crash_fraction=0.5)
        faultinject.install(plan)
        assert faultinject.active_plan() == plan
        assert json.loads(os.environ[ENV_VAR]) == json.loads(plan.to_json())
        faultinject.install(None)
        assert faultinject.active_plan() is None
        assert ENV_VAR not in os.environ

    def test_plan_parsed_from_environment(self, monkeypatch):
        plan = FaultPlan(seed=11, hang_fraction=0.2)
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        assert faultinject.active_plan() == plan

    def test_malformed_environment_plan_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "{not json")
        with pytest.raises(ValueError):
            faultinject.active_plan()


class TestFireHooks:
    def test_noop_without_plan(self):
        faultinject.fire_execution_fault("fp", 0)  # must not raise

    def test_crash_in_process_raises_simulated_crash(self):
        faultinject.install(FaultPlan(crash_fraction=1.0))
        with pytest.raises(SimulatedWorkerCrash):
            faultinject.fire_execution_fault("fp", 0)
        faultinject.fire_execution_fault("fp", 1)  # wrong attempt: no fault

    def test_hang_sleeps_finitely_then_returns(self):
        faultinject.install(FaultPlan(hang_fraction=1.0, hang_seconds=0.05))
        started = time.perf_counter()
        faultinject.fire_execution_fault("fp", 0)
        assert time.perf_counter() - started >= 0.05

    def test_corrupt_cache_entry(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text('{"checksum": "x", "payload": {}}')
        faultinject.install(FaultPlan(corrupt_fraction=1.0))
        assert faultinject.corrupt_cache_entry(str(path), "fp", 0)
        assert path.read_bytes() == CORRUPT_PAYLOAD
        # Wrong attempt: untouched.
        path.write_text("intact")
        assert not faultinject.corrupt_cache_entry(str(path), "fp", 1)
        assert path.read_text() == "intact"

    def test_corrupt_respects_fraction_zero(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("intact")
        faultinject.install(FaultPlan(corrupt_fraction=0.0))
        assert not faultinject.corrupt_cache_entry(str(path), "fp", 0)
        assert path.read_text() == "intact"
