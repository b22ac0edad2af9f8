"""Cached serving driver tests: fingerprints, runcache, scenario report.

The serving analysis layer must honour the same contracts as the
figure runner: results are pure functions of the request, cold and warm
sweeps are bit-identical, parallel execution changes nothing, and every
cache hit is visible in the runner stats.
"""

import json

import pytest

import repro.analysis.runner as runner_module
from repro.analysis.resilience import ResilienceConfig, SweepFailure
from repro.analysis.runner import Runner
from repro.analysis.serving import (
    SERVING_FORMAT,
    ServingRequest,
    execute_serving_request,
    run_serving_scenario,
    serving_code_version,
)
from repro.serving.admission import ADMISSION_POLICIES

SCALE = 1.2e-5


def small_request(**overrides) -> ServingRequest:
    fields = dict(
        isa="mmx", arch="cmp", cores=2, contexts=2, policy="rr",
        n_streams=6, scale=SCALE,
    )
    fields.update(overrides)
    return ServingRequest(**fields)


class TestServingRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", arch="vliw")
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", arch="smt", cores=2)
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", memory="perfect")
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", policy="fifo")
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", mix="bulk")
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", n_streams=0)
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", load=0.0)
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", slack=-1.0)
        with pytest.raises(ValueError):
            ServingRequest(isa="mmx", queue_limit=-1)

    def test_describe_request_fields(self):
        request = small_request(policy="least")
        assert request.n_threads == 4
        assert request.fetch_policy == "serve-least"

    def test_fingerprint_is_stable_and_field_sensitive(self):
        base = small_request()
        assert base.fingerprint() == base.fingerprint()
        assert base.fingerprint().startswith("serving-")
        for changed in (
            small_request(isa="mom"),
            small_request(policy="least"),
            small_request(n_streams=7),
            small_request(load=0.9),
            small_request(seed=1),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_fingerprint_tracks_both_version_strings(self):
        request = small_request()
        baseline = request.fingerprint("codev", "servingv")
        assert request.fingerprint("codev2", "servingv") != baseline
        assert request.fingerprint("codev", "servingv2") != baseline

    def test_serving_code_version_is_cached_and_distinct(self):
        version = serving_code_version()
        assert version == serving_code_version()
        assert len(version) == 40


class TestCacheDiscipline:
    def test_cold_warm_bit_identity(self, tmp_path):
        request = small_request()
        cold_runner = Runner(cache_dir=str(tmp_path))
        cold = cold_runner.run_batch([request])[request]
        assert cold_runner.stats.simulated == 1

        warm_runner = Runner(cache_dir=str(tmp_path))
        warm = warm_runner.run_batch([request])[request]
        assert warm_runner.stats.simulated == 0
        assert warm_runner.stats.disk_hits == 1
        # A warm sweep's throughput counts the cached points' work too.
        assert cold_runner.stats.sim_instructions > 0
        assert warm_runner.stats.cached_instructions == (
            cold_runner.stats.sim_instructions
        )
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            warm, sort_keys=True
        )

    def test_memo_and_dedup(self):
        runner = Runner()
        request = small_request()
        first = runner.run_batch([request, request])
        assert runner.stats.simulated == 1
        assert runner.stats.deduplicated == 1
        second = runner.run_batch([request])
        assert runner.stats.memo_hits == 1
        assert runner.stats.simulated == 1
        assert first[request] == second[request]

    def test_serial_equals_parallel(self, tmp_path):
        requests = [small_request(), small_request(isa="mom")]
        serial = Runner().run_batch(requests)
        parallel_runner = Runner(jobs=2, cache_dir=str(tmp_path))
        parallel = parallel_runner.run_batch(requests)
        assert parallel_runner.stats.simulated == 2
        for request in requests:
            assert json.dumps(serial[request], sort_keys=True) == json.dumps(
                parallel[request], sort_keys=True
            )

    def test_failed_point_is_recorded_in_outcomes(self, monkeypatch):
        def failing(args):
            raise OSError("worker lost its disk")

        monkeypatch.setattr(runner_module, "_pool_execute", failing)
        request = small_request()
        runner = Runner(resilience=ResilienceConfig(max_attempts=1))
        with pytest.raises(SweepFailure):
            runner.run_batch([request])
        assert runner.stats.failed_points == 1
        assert runner.outcomes[request].status == "failed"

    def test_result_carries_provenance(self):
        result = execute_serving_request(small_request())
        assert result["provenance"]["serving_format"] == SERVING_FORMAT
        assert result["provenance"]["n_slots"] == 4
        assert result["provenance"]["mean_interarrival"] >= 1


class TestScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_serving_scenario(
            scale=SCALE, runner=Runner(), n_streams=6
        )

    def test_covers_the_full_grid(self, scenario):
        assert scenario.name == "serving"
        # ISA x arch-point x memory x policy.
        assert len(scenario.measured) == 2 * 2 * 2 * 3
        for key, point in scenario.measured.items():
            isa, arch, memory, policy = key.split("/")
            assert isa in ("mmx", "mom")
            assert arch in ("smt-8T", "cmp-4x2T")
            assert point["streams_per_mcycle"] > 0

    def test_report_quotes_policies_and_architectures(self, scenario):
        assert "Serving capacity" in scenario.report
        assert "Admission policy comparison" in scenario.report
        for token in ("smt-8T", "cmp-4x2T", "rr", "least", "affinity"):
            assert token in scenario.report
        assert "best admission policy" in scenario.report

    def test_admission_policies_place_streams_differently(self, scenario):
        # The CMP x SMT grid genuinely exercises placement: the three
        # policies give at least two distinct results per ISA.
        for isa in ("mmx", "mom"):
            by_policy = {
                request.policy: json.dumps(result, sort_keys=True)
                for request, result in scenario.runs.items()
                if (request.isa, request.arch, request.memory)
                == (isa, "cmp", "conventional")
            }
            assert sorted(by_policy) == sorted(ADMISSION_POLICIES)
            assert len(set(by_policy.values())) >= 2, isa

    def test_scenario_is_deterministic(self, scenario):
        again = run_serving_scenario(
            scale=SCALE, runner=Runner(), n_streams=6
        )
        assert json.dumps(scenario.measured, sort_keys=True) == json.dumps(
            again.measured, sort_keys=True
        )
