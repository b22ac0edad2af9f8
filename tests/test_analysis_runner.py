"""The experiment run engine: fingerprints, caching, dedup, parallelism."""

import dataclasses
import json
import os

import pytest

import repro.tracegen.serialize as serialize
import repro.workloads.mediabench as mediabench
from repro.analysis import runner as runner_module
from repro.analysis.resilience import SweepFailure
from repro.analysis.runner import (
    RunRequest,
    Runner,
    code_version,
    execute_request,
    memory_factory,
    result_from_dict,
    result_to_dict,
)
from repro.core.fetch import FetchPolicy
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.perfect import PerfectMemory
from repro.tracegen.serialize import load_trace, save_trace

#: Small enough for sub-second runs, large enough that every program
#: contributes instructions.
SCALE = 1.2e-5


def tiny(**overrides) -> RunRequest:
    base = dict(isa="mmx", n_threads=2, scale=SCALE)
    base.update(overrides)
    return RunRequest(**base)


class TestRunRequest:
    def test_fingerprint_stable(self):
        assert tiny().fingerprint("v") == tiny().fingerprint("v")

    @pytest.mark.parametrize(
        "change",
        [
            {"isa": "mom"},
            {"n_threads": 4},
            {"memory": "perfect"},
            {"fetch_policy": "icount"},
            {"scale": 1.3e-5},
            {"seed": 1},
            {"completions_target": 16},
            {"sampling": (5000, 500, 100)},
        ],
    )
    def test_fingerprint_covers_every_field(self, change):
        assert tiny(**change).fingerprint("v") != tiny().fingerprint("v")

    def test_fingerprint_covers_code_version(self):
        assert tiny().fingerprint("v1") != tiny().fingerprint("v2")

    def test_enum_policy_normalized(self):
        assert tiny(fetch_policy=FetchPolicy.ICOUNT) == tiny(
            fetch_policy="icount"
        )

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)

    def test_memory_factory(self):
        assert memory_factory("perfect") is PerfectMemory
        assert memory_factory("conventional") is ConventionalHierarchy
        with pytest.raises(ValueError):
            memory_factory("imaginary")


class TestResultRoundTrip:
    def test_lossless(self):
        result = execute_request(tiny())
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rebuilt == result

    def test_preserves_nested_stats(self):
        result = execute_request(tiny())
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.memory.l1.hit_rate == result.memory.l1.hit_rate
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(result)


class TestRunnerCaching:
    def test_cold_run_simulates_then_warm_run_does_not(self, tmp_path):
        cold = Runner(cache_dir=str(tmp_path))
        first = cold.run(tiny())
        assert cold.stats.simulated == 1

        warm = Runner(cache_dir=str(tmp_path))
        second = warm.run(tiny())
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == 1
        assert second == first

    def test_config_change_misses(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        other = Runner(cache_dir=str(tmp_path))
        other.run(tiny(memory="perfect"))
        assert other.stats.disk_hits == 0
        assert other.stats.simulated == 1

    def test_seed_change_misses(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        other = Runner(cache_dir=str(tmp_path))
        other.run(tiny(seed=3))
        assert other.stats.disk_hits == 0
        assert other.stats.simulated == 1

    def test_code_version_bump_invalidates(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.run(tiny())
        bumped = Runner(cache_dir=str(tmp_path), version="v2")
        bumped.run(tiny())
        assert bumped.stats.disk_hits == 0
        assert bumped.stats.simulated == 1

    def test_corrupt_cache_entry_resimulated(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.run(tiny())
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ not json")
        recovered = Runner(cache_dir=str(tmp_path), version="v1")
        recovered.run(tiny())
        assert recovered.stats.simulated == 1

    def test_no_cache_dir_still_memoizes(self):
        runner = Runner()
        runner.run(tiny())
        runner.run(tiny())
        assert runner.stats.simulated == 1
        assert runner.stats.memo_hits == 1

    def test_traces_cached_on_disk(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        traces = os.listdir(runner.trace_dir)
        assert traces and all(t.endswith(".trace") for t in traces)

    def test_cached_traces_are_keyed_by_code_version(self, tmp_path, monkeypatch):
        # Trace files are named by generation parameters only, so after a
        # trace-generator edit (a new code version) a runner over the same
        # cache directory must not simulate the old generator's traces.
        reference = Runner().run(tiny())
        old = Runner(cache_dir=str(tmp_path), version="old-generator")
        old.run(tiny())
        # Stand in for the old generator's output: cut every cached trace
        # to half its length.
        for name in os.listdir(old.trace_dir):
            path = os.path.join(old.trace_dir, name)
            trace = load_trace(path)
            trace.instructions = trace.instructions[: len(trace) // 2]
            save_trace(trace, path)

        def fresh_process(version):
            # A new process: no in-memory workload traces, only the disk.
            monkeypatch.setattr(runner_module, "_WORKLOAD_MEMO", {})
            return Runner(cache_dir=str(tmp_path), version=version)

        # Under its own version the doctored cache is what runs (so the
        # planted traces would show) ...
        assert fresh_process("old-generator").run(tiny(memory="perfect")) != (
            Runner().run(tiny(memory="perfect"))
        )
        # ... and another version never reads it.
        assert fresh_process("new-generator").run(tiny()) == reference


class TestRunnerDedup:
    def test_duplicate_requests_simulate_once(self):
        runner = Runner()
        results = runner.run_batch([tiny(), tiny(), tiny()])
        assert runner.stats.requested == 3
        assert runner.stats.deduplicated == 2
        assert runner.stats.simulated == 1
        assert len(results) == 1

    def test_distinct_requests_all_run(self):
        runner = Runner()
        batch = [tiny(), tiny(isa="mom")]
        results = runner.run_batch(batch)
        assert runner.stats.simulated == 2
        assert set(results) == set(batch)


class TestRunnerParallel:
    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        batch = [
            tiny(),
            tiny(isa="mom"),
            tiny(memory="perfect"),
            tiny(fetch_policy="icount"),
        ]
        serial = Runner().run_batch(batch)
        parallel = Runner(jobs=2).run_batch(batch)
        for request in batch:
            assert parallel[request] == serial[request], request

    def test_warm_cache_matches_cold_bit_for_bit(self, tmp_path):
        batch = [tiny(), tiny(isa="mom")]
        cold = Runner(cache_dir=str(tmp_path)).run_batch(batch)
        warm_runner = Runner(cache_dir=str(tmp_path))
        warm = warm_runner.run_batch(batch)
        assert warm_runner.stats.simulated == 0
        assert warm == cold


def _parent_only(pid, real):
    """``real`` in process ``pid``; in any other process, an error."""

    def double(*args, **kwargs):
        if os.getpid() != pid:
            raise RuntimeError("a pool worker read a trace")
        return real(*args, **kwargs)

    return double


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestWorkloadPrebuild:
    """A pooled batch builds its workloads in the parent; workers inherit them."""

    def test_workers_never_build_or_load_a_trace(self, tmp_path, monkeypatch):
        batch = [
            tiny(),
            tiny(n_threads=4),
            tiny(isa="mom"),
            tiny(isa="mom", memory="perfect"),
        ]
        serial = Runner().run_batch(batch)
        pid = os.getpid()
        for module, name in (
            (serialize, "load_trace"),
            (serialize, "build_program_trace"),
            (mediabench, "build_program_trace"),
        ):
            monkeypatch.setattr(module, name, _parent_only(pid, getattr(module, name)))
        runner = Runner(jobs=2, cache_dir=str(tmp_path))
        parallel = runner.run_batch(batch)
        assert runner.stats.simulated == 4
        for request in batch:
            assert canonical(parallel[request]) == canonical(serial[request]), request

    def test_a_failing_build_fails_only_the_points_that_need_it(
        self, tmp_path, monkeypatch
    ):
        real = serialize.build_program_trace

        def build(name, isa, *args, **kwargs):
            if isa == "mom":
                raise RuntimeError("mom generator bug")
            return real(name, isa, *args, **kwargs)

        monkeypatch.setattr(serialize, "build_program_trace", build)
        monkeypatch.setattr(mediabench, "build_program_trace", build)
        bad = [tiny(isa="mom"), tiny(isa="mom", n_threads=4)]
        good = [tiny(), tiny(n_threads=4)]
        runner = Runner(jobs=2, cache_dir=str(tmp_path))
        with pytest.raises(SweepFailure) as info:
            runner.run_batch(bad + good)
        assert {outcome.request for outcome in info.value.failed} == set(bad)
        for outcome in info.value.failed:
            (record,) = outcome.failures
            assert (record.kind, record.error) == ("error", "RuntimeError")
            assert "mom generator bug" in record.message
        for request in good:
            assert runner.outcomes[request].status == "ok"

        warm = Runner(cache_dir=str(tmp_path))
        warm.run_batch(good)
        assert (warm.stats.disk_hits, warm.stats.simulated) == (2, 0)


class TestRunnerStats:
    def test_delta_since(self):
        runner = Runner()
        before = runner.stats.snapshot()
        runner.run(tiny())
        delta = runner.stats.delta_since(before)
        assert delta["simulated"] == 1
        assert delta["sim_instructions"] > 0
        assert delta["sim_cycles"] > 0

    def test_cache_hits_carry_sim_provenance(self, tmp_path):
        # A cached result remembers the wall time and size of the run
        # that produced it, so fully-cached sweeps can still report the
        # throughput behind their numbers instead of null.
        cold = Runner(cache_dir=str(tmp_path))
        result = cold.run(tiny())
        warm = Runner(cache_dir=str(tmp_path))
        warm.run(tiny())
        assert warm.stats.simulated == 0
        assert warm.stats.cached_sim_seconds > 0
        assert warm.stats.cached_instructions == (
            result.committed_instructions
        )


class TestArtifactCache:
    def test_computed_once_and_round_tripped(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1.5, "names": ["a", "b"]}

        first = runner.artifact("t", {"scale": "1"}, compute)
        again = runner.artifact("t", {"scale": "1"}, compute)
        assert first == again == {"x": 1.5, "names": ["a", "b"]}
        assert len(calls) == 1
        assert runner.stats.artifact_hits == 1

    def test_persists_across_runners(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.artifact("t", {"scale": "1"}, lambda: [1, 2])
        fresh = Runner(cache_dir=str(tmp_path), version="v1")
        value = fresh.artifact(
            "t", {"scale": "1"}, lambda: pytest.fail("should be cached")
        )
        assert value == [1, 2]
        assert fresh.stats.artifact_hits == 1

    def test_keyed_by_payload_and_version(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        assert runner.artifact("t", {"scale": "1"}, lambda: 1) == 1
        assert runner.artifact("t", {"scale": "2"}, lambda: 2) == 2
        bumped = Runner(cache_dir=str(tmp_path), version="v2")
        assert bumped.artifact("t", {"scale": "1"}, lambda: 3) == 3
