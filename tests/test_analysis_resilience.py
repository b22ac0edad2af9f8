"""The fault-tolerance layer: retries, timeouts, pool breaks, crash-safe cache."""

import glob
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.runner as runner_module
from repro.analysis.resilience import (
    ResilienceConfig,
    ResilientExecutor,
    SweepFailure,
    backoff_delay,
    is_transient,
)
from repro.analysis.runner import (
    CacheIntegrityWarning,
    Runner,
    RunRequest,
    read_checked_json,
    verify_cache,
    write_checked_json,
)
from repro.verify import faultinject
from repro.verify.faultinject import FaultPlan, SimulatedWorkerCrash
from repro.verify.sanitizer import InvariantViolation

SCALE = 1.2e-5

FAST = ResilienceConfig(backoff_base=0.01, backoff_max=0.05)

_SRC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def tiny(**overrides) -> RunRequest:
    base = dict(isa="mmx", n_threads=2, scale=SCALE)
    base.update(overrides)
    return RunRequest(**base)


def fast(**overrides) -> ResilienceConfig:
    base = dict(backoff_base=0.01, backoff_max=0.05)
    base.update(overrides)
    return ResilienceConfig(**base)


@pytest.fixture(autouse=True)
def clean_plan():
    faultinject.install(None)
    yield
    faultinject.install(None)


# ----- stub workers (module level: the pool pickles them by reference) -------


def _payload(request, attempt):
    return {"elapsed": 0.0, "result": {"value": str(request)}, "attempt": attempt}


def _ok_worker(args):
    request, _trace_dir, attempt, _fingerprint = args
    return _payload(request, attempt)


def _flaky_worker(args):
    """OSError on the first attempt, success afterwards."""
    request, _trace_dir, attempt, _fingerprint = args
    if attempt == 0:
        raise OSError("transient I/O hiccup")
    return _payload(request, attempt)


def _value_error_worker(args):
    raise ValueError("deterministic model bug")


def _invariant_worker(args):
    raise InvariantViolation(
        "rob", "SAN-RETIRE-ORDER", "retired out of order", {"thread": 1, "seq": 7}
    )


def _simulated_crash_worker(args):
    """Dies for real in a worker process, raises in-process otherwise."""
    request, _trace_dir, attempt, _fingerprint = args
    if multiprocessing.parent_process() is not None:
        os._exit(faultinject.CRASH_EXIT_CODE)
    raise SimulatedWorkerCrash(f"injected crash of {request}")


def _crash_once_worker(args):
    request, _trace_dir, attempt, _fingerprint = args
    if attempt == 0:
        if multiprocessing.parent_process() is not None:
            os._exit(faultinject.CRASH_EXIT_CODE)
        raise SimulatedWorkerCrash(f"injected crash of {request}")
    return _payload(request, attempt)


def _hang_once_worker(args):
    request, _trace_dir, attempt, _fingerprint = args
    if attempt == 0:
        time.sleep(60.0)
    return _payload(request, attempt)


def _bad_prefix_worker(args):
    request, _trace_dir, attempt, _fingerprint = args
    if str(request).startswith("bad"):
        raise ValueError(f"{request} is permanently broken")
    return _payload(request, attempt)


def run_executor(worker, requests, config, jobs=1):
    collected = {}
    executor = ResilientExecutor(config, jobs, worker, fingerprint_of=str)
    outcomes = executor.execute(
        list(requests), None, lambda request, payload: collected.update({request: payload})
    )
    return executor, {o.request: o for o in outcomes}, collected


# ----- policy primitives ------------------------------------------------------


class TestBackoff:
    def test_deterministic_and_order_free(self):
        config = ResilienceConfig(backoff_seed=5)
        delays = [backoff_delay(config, f"fp{i}", a) for i in range(5) for a in (1, 2)]
        again = [backoff_delay(config, f"fp{i}", a) for i in range(5) for a in (1, 2)]
        assert delays == again

    def test_jitter_within_half_to_three_halves_of_base(self):
        config = ResilienceConfig(backoff_base=0.2, backoff_factor=2.0)
        for attempt, base in ((1, 0.2), (2, 0.4), (3, 0.8)):
            delay = backoff_delay(config, "fp", attempt)
            assert 0.5 * base <= delay < 1.5 * base

    def test_capped_at_backoff_max(self):
        config = ResilienceConfig(backoff_max=1.0)
        assert backoff_delay(config, "fp", 40) < 1.5

    def test_seed_and_fingerprint_vary_the_jitter(self):
        a = ResilienceConfig(backoff_seed=1)
        b = ResilienceConfig(backoff_seed=2)
        assert backoff_delay(a, "fp", 1) != backoff_delay(b, "fp", 1)
        assert backoff_delay(a, "fp1", 1) != backoff_delay(a, "fp2", 1)


class TestBackoffProperties:
    """Property coverage: the delay law the whole repo relies on.

    The resilient executor resubmits with :func:`backoff_delay`, for
    whole runs and window shards alike; deterministic replay of a chaos
    run needs the delay to be a pure function of (seed, fingerprint,
    attempt) with a monotone, capped envelope.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        fingerprint=st.text(min_size=1, max_size=64),
        attempt=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_monotone_bounded(
        self, seed, fingerprint, attempt
    ):
        config = ResilienceConfig(backoff_seed=seed)
        delay = backoff_delay(config, fingerprint, attempt)
        assert delay == backoff_delay(config, fingerprint, attempt)
        envelope = min(
            config.backoff_max,
            config.backoff_base * config.backoff_factor ** (attempt - 1),
        )
        assert 0.5 * envelope <= delay < 1.5 * envelope
        assert delay < 1.5 * config.backoff_max
        if attempt > 1:
            previous = min(
                config.backoff_max,
                config.backoff_base
                * config.backoff_factor ** (attempt - 2),
            )
            assert previous <= envelope  # the envelope never shrinks

    @given(
        triples=st.lists(
            st.tuples(
                st.integers(0, 2**16),
                st.text(
                    alphabet="0123456789abcdef", min_size=1, max_size=16
                ),
                st.integers(1, 16),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=5, deadline=None)
    def test_stable_across_processes(self, triples):
        # A resumed sweep in a fresh interpreter must compute the
        # *same* delays: bit-exact, not just statistically similar.
        import json
        import subprocess
        import sys

        local = [
            backoff_delay(
                ResilienceConfig(backoff_seed=seed), fingerprint, attempt
            ).hex()
            for seed, fingerprint, attempt in triples
        ]
        program = (
            "import json, sys\n"
            "from repro.analysis.resilience import ("
            "ResilienceConfig, backoff_delay)\n"
            "triples = json.loads(sys.stdin.read())\n"
            "print(json.dumps([backoff_delay("
            "ResilienceConfig(backoff_seed=s), fp, a).hex() "
            "for s, fp, a in triples]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", program],
            input=json.dumps(triples),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC_PATH},
            check=True,
        )
        assert json.loads(proc.stdout) == local


class TestTransience:
    def test_transient_kinds(self):
        assert is_transient(OSError("disk"))
        assert is_transient(SimulatedWorkerCrash("boom"))
        assert is_transient(BrokenProcessPool("pool"))

    def test_deterministic_kinds_are_not_retried(self):
        assert not is_transient(ValueError("bug"))
        assert not is_transient(KeyError("bug"))

    def test_invariant_violations_never_retry(self):
        # InvariantViolation is an AssertionError, but even if it were an
        # OSError subclass the explicit carve-out must win: a determinis-
        # tic model bug cannot be fixed by rerunning the simulation.
        assert not is_transient(InvariantViolation("rob", "C", "m"))


# ----- serial executor --------------------------------------------------------


class TestSerialExecutor:
    def test_transient_failures_retry_to_success(self):
        executor, outcomes, collected = run_executor(
            _flaky_worker, ["a", "b"], fast()
        )
        assert {o.status for o in outcomes.values()} == {"ok"}
        assert all(o.attempts == 2 for o in outcomes.values())
        assert executor.retries == 2
        assert executor.failed == 0
        assert set(collected) == {"a", "b"}
        record = outcomes["a"].failures[0]
        assert (record.kind, record.error, record.attempt) == ("error", "OSError", 0)

    def test_non_transient_failure_is_permanent_on_first_attempt(self):
        executor, outcomes, collected = run_executor(
            _value_error_worker, ["a"], fast()
        )
        assert outcomes["a"].status == "failed"
        assert outcomes["a"].attempts == 1
        assert executor.retries == 0
        assert executor.failed == 1
        assert collected == {}

    def test_attempts_exhausted_becomes_permanent(self):
        executor, outcomes, _ = run_executor(
            _simulated_crash_worker, ["a"], fast(max_attempts=3)
        )
        assert outcomes["a"].status == "failed"
        assert outcomes["a"].attempts == 3
        assert executor.retries == 2
        assert [f.kind for f in outcomes["a"].failures] == ["crash"] * 3

    def test_salvage_mode_finishes_everything_completable(self):
        executor, outcomes, collected = run_executor(
            _bad_prefix_worker, ["bad-0", "good-0", "good-1"], fast()
        )
        assert outcomes["bad-0"].status == "failed"
        assert outcomes["good-0"].status == "ok"
        assert outcomes["good-1"].status == "ok"
        assert not executor.aborted
        assert set(collected) == {"good-0", "good-1"}

    def test_fail_fast_aborts_the_remainder(self):
        executor, outcomes, collected = run_executor(
            _bad_prefix_worker, ["bad-0", "good-0", "good-1"], fast(fail_fast=True)
        )
        assert outcomes["bad-0"].status == "failed"
        assert outcomes["good-0"].status == "aborted"
        assert outcomes["good-1"].status == "aborted"
        assert executor.aborted
        assert collected == {}

    def test_max_failures_bounds_the_damage(self):
        executor, outcomes, _ = run_executor(
            _bad_prefix_worker,
            ["bad-0", "bad-1", "good-0", "bad-2"],
            fast(max_failures=2),
        )
        statuses = [outcomes[r].status for r in ("bad-0", "bad-1", "good-0", "bad-2")]
        assert statuses == ["failed", "failed", "aborted", "aborted"]
        assert executor.failed == 2
        assert executor.aborted


# ----- pooled executor --------------------------------------------------------


class TestPooledExecutor:
    def test_worker_crash_breaks_pool_then_recovers(self):
        executor, outcomes, collected = run_executor(
            _crash_once_worker, ["a", "b"], fast(pool_break_limit=10), jobs=2
        )
        assert {o.status for o in outcomes.values()} == {"ok"}
        assert set(collected) == {"a", "b"}
        assert executor.pool_breaks >= 1
        assert executor.degraded == 0
        # Every task that rode a broken pool was charged a "pool" failure.
        kinds = {f.kind for o in outcomes.values() for f in o.failures}
        assert kinds == {"pool"}

    def test_hung_run_is_killed_charged_and_retried(self):
        executor, outcomes, collected = run_executor(
            _hang_once_worker, ["a", "b"], fast(timeout=1.5), jobs=2
        )
        assert {o.status for o in outcomes.values()} == {"ok"}
        assert set(collected) == {"a", "b"}
        assert executor.timeouts >= 1
        timed_out = [
            f for o in outcomes.values() for f in o.failures if f.kind == "timeout"
        ]
        assert timed_out
        assert all(f.elapsed >= 1.5 for f in timed_out)

    def test_persistent_breakage_degrades_to_serial(self):
        executor, outcomes, _ = run_executor(
            _simulated_crash_worker,
            ["a", "b"],
            fast(pool_break_limit=2, max_attempts=4),
            jobs=2,
        )
        assert executor.degraded == 1
        assert executor.pool_breaks == 2
        assert {o.status for o in outcomes.values()} == {"failed"}
        # History shows both phases: pooled breaks, then in-process crashes.
        kinds = [f.kind for f in outcomes["a"].failures]
        assert "pool" in kinds and "crash" in kinds
        assert outcomes["a"].attempts == 4

    def test_invariant_violation_crosses_the_pool_intact(self):
        """Satellite: a violation in a worker must arrive structured."""
        executor, outcomes, collected = run_executor(
            _invariant_worker, ["a", "b"], fast(), jobs=2
        )
        assert {o.status for o in outcomes.values()} == {"failed"}
        assert collected == {}
        assert executor.retries == 0  # deterministic bug: no retry
        for outcome in outcomes.values():
            assert outcome.attempts == 1
            record = outcome.failures[0]
            assert record.error == "InvariantViolation"
            assert "SAN-RETIRE-ORDER" in record.message
            assert "retired out of order" in record.message


class TestInvariantViolationPickling:
    def test_round_trip_preserves_structured_payload(self):
        violation = InvariantViolation(
            "mshr", "SAN-MSHR-LEAK", "5 fills pending at drain", {"pending": 5}
        )
        clone = pickle.loads(pickle.dumps(violation))
        assert isinstance(clone, InvariantViolation)
        assert clone.component == "mshr"
        assert clone.code == "SAN-MSHR-LEAK"
        assert clone.message == "5 fills pending at drain"
        assert clone.details == {"pending": 5}
        assert str(clone) == str(violation)

    def test_surfaces_as_itself_through_a_process_pool(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_invariant_worker, ("a", None, 0, "fp"))
            with pytest.raises(InvariantViolation) as info:
                future.result()
        assert info.value.code == "SAN-RETIRE-ORDER"
        assert info.value.details == {"thread": 1, "seq": 7}


# ----- crash-safe cache format ------------------------------------------------


class TestCheckedJson:
    def test_round_trip_ok(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_checked_json(path, {"a": [1, 2.5, "x"]})
        payload, status = read_checked_json(path)
        assert status == "ok"
        assert payload == {"a": [1, 2.5, "x"]}

    def test_missing(self, tmp_path):
        assert read_checked_json(str(tmp_path / "nope.json")) == (None, "missing")

    def test_unparseable_is_corrupt(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{torn wr")
        assert read_checked_json(str(path)) == (None, "corrupt")

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_checked_json(path, {"value": 1})
        tampered = open(path).read().replace('"value": 1', '"value": 2')
        with open(path, "w") as handle:
            handle.write(tampered)
        assert read_checked_json(path) == (None, "corrupt")

    def test_pre_envelope_format_is_legacy_not_corrupt(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text('{"result_format": 1, "result": {}}')
        assert read_checked_json(str(path)) == (None, "legacy")

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_checked_json(path, {"value": 1})
        write_checked_json(path, {"value": 2})
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_verify_cache_classifies(self, tmp_path):
        write_checked_json(str(tmp_path / "good.json"), {"v": 1})
        (tmp_path / "torn.json").write_text("{")
        (tmp_path / "old.json").write_text('{"v": 1}')
        (tmp_path / "dead.json.corrupt").write_text("x")
        scan = verify_cache(str(tmp_path))
        assert scan["ok"] == 1
        assert [os.path.basename(p) for p in scan["corrupt"]] == ["torn.json"]
        assert [os.path.basename(p) for p in scan["legacy"]] == ["old.json"]
        assert [os.path.basename(p) for p in scan["quarantined"]] == [
            "dead.json.corrupt"
        ]


# ----- the runner under injected faults ---------------------------------------


class TestRunnerResilience:
    def test_injected_crash_retries_to_a_bit_identical_result(self, tmp_path):
        reference = Runner().run(tiny())

        faultinject.install(FaultPlan(crash_fraction=1.0))
        runner = Runner(cache_dir=str(tmp_path), resilience=FAST)
        result = runner.run(tiny())
        assert result == reference
        assert runner.stats.retries == 1
        assert runner.stats.failed_points == 0
        outcome = runner.outcomes[tiny()]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.failures[0].kind == "crash"

    def test_injected_corruption_is_quarantined_and_recomputed(self, tmp_path):
        faultinject.install(FaultPlan(corrupt_fraction=1.0))
        chaos = Runner(cache_dir=str(tmp_path), resilience=FAST)
        reference = chaos.run(tiny())
        scan = verify_cache(str(tmp_path))
        assert len(scan["corrupt"]) == 1  # the entry really was corrupted

        faultinject.install(None)
        warm = Runner(cache_dir=str(tmp_path), resilience=FAST)
        with pytest.warns(CacheIntegrityWarning, match="quarantined"):
            result = warm.run(tiny())
        assert result == reference
        assert warm.stats.corrupt_quarantined == 1
        assert warm.stats.simulated == 1
        assert warm.stats.disk_hits == 0
        assert glob.glob(str(tmp_path / "*.json.corrupt"))
        scan = verify_cache(str(tmp_path))
        assert not scan["corrupt"]
        assert scan["ok"] >= 1

    def test_sweep_failure_salvages_and_caches_the_good_points(
        self, tmp_path, monkeypatch
    ):
        real = runner_module._pool_execute

        def selective(args):
            if args[0].n_threads == 4:
                raise ValueError("synthetic permanent failure")
            return real(args)

        monkeypatch.setattr(runner_module, "_pool_execute", selective)
        good, bad = tiny(), tiny(n_threads=4)
        runner = Runner(cache_dir=str(tmp_path), resilience=FAST)
        with pytest.raises(SweepFailure) as info:
            runner.run_batch([good, bad])
        assert [o.request for o in info.value.failed] == [bad]
        assert not info.value.aborted
        assert "1 of 2 simulation points failed permanently" in str(info.value)
        assert "synthetic permanent failure" in info.value.summary()
        assert runner.stats.failed_points == 1
        assert runner.outcomes[bad].status == "failed"
        assert runner.outcomes[good].status == "ok"

        # The good point was salvaged: a rerun serves it from disk.
        warm = Runner(cache_dir=str(tmp_path))
        warm.run(good)
        assert warm.stats.disk_hits == 1
        assert warm.stats.simulated == 0

    def test_hang_on_the_final_attempt_raises_instead_of_deadlocking(
        self, tmp_path
    ):
        # The nastiest timing edge: the injected hang lands on the last
        # attempt of the budget, so there is no retry left to save the
        # point.  The timeout kill must still fire and the sweep must
        # end in SweepFailure — not sleep out the 30 s hang, and not
        # wait forever on a worker that will never report.
        faultinject.install(FaultPlan(hang_fraction=1.0, hang_seconds=30.0))
        # Two points + jobs=2 force pooled execution: only a pool can
        # preempt a hang (a single-point batch runs serially, where a
        # hang deliberately sleeps to completion).
        runner = Runner(
            cache_dir=str(tmp_path), jobs=2,
            resilience=fast(timeout=0.5, max_attempts=1),
        )
        started = time.monotonic()
        with pytest.raises(SweepFailure) as info:
            runner.run_batch([tiny(), tiny(n_threads=4)])
        assert time.monotonic() - started < 15.0, "hang was slept out"
        assert len(info.value.failed) == 2
        for outcome in info.value.failed:
            assert outcome.failures[-1].kind == "timeout"
        assert runner.stats.failed_points == 2
        assert runner.stats.timeouts == 2
        assert runner.stats.retries == 0  # the budget really was 1

    def test_faults_keyed_to_later_attempts_leave_attempt_zero_clean(
        self, tmp_path
    ):
        faultinject.install(FaultPlan(crash_fraction=1.0, fault_attempt=1))
        runner = Runner(cache_dir=str(tmp_path), resilience=FAST)
        runner.run(tiny())
        assert runner.stats.retries == 0
        assert runner.outcomes[tiny()].attempts == 1
