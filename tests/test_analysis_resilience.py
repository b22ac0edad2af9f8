"""The fault-tolerance layer: pool restarts, timeouts, retries, crash-safe cache.

Faults come from test-double workers.  A fault that must fire once keys
on a marker file under ``tmp_path``: the first process to create the
file takes the fault, every later run finds it and proceeds.
"""

import functools
import glob
import json
import os
import pickle
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.analysis.resilience as resilience_module
import repro.analysis.runner as runner_module
from repro.analysis.resilience import (
    ResilienceConfig,
    ResilientExecutor,
    SweepFailure,
    is_transient,
)
from repro.analysis.runner import (
    CacheIntegrityWarning,
    Runner,
    RunRequest,
    read_checked_json,
    result_to_dict,
    verify_cache,
    write_checked_json,
)
from repro.verify.sanitizer import InvariantViolation

SCALE = 1.2e-5

_SRC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: The real worker entry point, bound before any test patches the module.
_SIMULATE = runner_module._pool_execute


def tiny(**overrides) -> RunRequest:
    base = dict(isa="mmx", n_threads=2, scale=SCALE)
    base.update(overrides)
    return RunRequest(**base)


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


# ----- worker doubles (module level: the pool pickles them by reference) -----


def _claim(marker: str) -> bool:
    """True for the one caller, in any process, that creates ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _payload(request):
    return {"elapsed": 0.0, "result": {"value": str(request)}}


def _flaky_worker(marker_dir, args):
    """OSError on each request's first run, success afterwards."""
    request, _trace_dir = args
    if _claim(os.path.join(marker_dir, request)):
        raise OSError("transient I/O hiccup")
    return _payload(request)


def _os_error_worker(args):
    raise OSError("disk keeps failing")


def _value_error_worker(args):
    raise ValueError("deterministic model bug")


def _invariant_worker(args):
    raise InvariantViolation(
        "rob", "SAN-RETIRE-ORDER", "retired out of order", {"thread": 1, "seq": 7}
    )


def _crash_once_worker(marker, args):
    """The first run to claim ``marker`` kills its worker process."""
    request, _trace_dir = args
    if _claim(marker):
        os._exit(71)
    return _payload(request)


def _hang_forever(args):
    time.sleep(60.0)


def _timing_worker(marker_dir, args):
    """``hang`` never returns; ``stall-once`` stalls on its first run only."""
    request, _trace_dir = args
    if request == "hang" or (
        request == "stall-once" and _claim(os.path.join(marker_dir, request))
    ):
        _hang_forever(args)
    elif request == "short":
        time.sleep(0.3)
    return _payload(request)


def _bad_prefix_worker(args):
    request, _trace_dir = args
    if str(request).startswith("bad"):
        raise ValueError(f"{request} is permanently broken")
    return _payload(request)


def _die_once_then_simulate(marker, victim, args):
    """Simulate for real, but kill the worker on ``victim``'s first run."""
    if args[0] == victim and _claim(marker):
        os._exit(71)
    return _SIMULATE(args)


class _BrokenPool:
    """A process pool that is already broken whenever a run is submitted."""

    def __init__(self, max_workers, mp_context=None):
        self.submits = 0

    def submit(self, fn, args):
        self.submits += 1
        if self.submits > 100:
            raise RuntimeError("submit loop not bounded by max_attempts")
        raise BrokenProcessPool("a worker process died before the run started")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def run_executor(worker, requests, config=ResilienceConfig(), jobs=1):
    collected = {}
    executor = ResilientExecutor(config, jobs, worker)
    outcomes = executor.execute(
        list(requests), None, lambda request, payload: collected.update({request: payload})
    )
    return executor, {o.request: o for o in outcomes}, collected


# ----- policy primitives ------------------------------------------------------


class TestTransience:
    def test_transient_kinds(self):
        assert is_transient(OSError("disk"))
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
    def test_transient_failures_retry_to_success(self, tmp_path):
        executor, outcomes, collected = run_executor(
            functools.partial(_flaky_worker, str(tmp_path)), ["a", "b"]
        )
        assert {o.status for o in outcomes.values()} == {"ok"}
        assert all(o.attempts == 2 for o in outcomes.values())
        assert executor.retries == 2
        assert executor.failed == 0
        assert set(collected) == {"a", "b"}
        record = outcomes["a"].failures[0]
        assert (record.kind, record.error, record.attempt) == ("error", "OSError", 0)

    def test_non_transient_failure_is_permanent_on_first_attempt(self):
        executor, outcomes, collected = run_executor(_value_error_worker, ["a"])
        assert outcomes["a"].status == "failed"
        assert outcomes["a"].attempts == 1
        assert executor.retries == 0
        assert executor.failed == 1
        assert collected == {}

    def test_attempts_exhausted_becomes_permanent(self):
        executor, outcomes, _ = run_executor(
            _os_error_worker, ["a"], ResilienceConfig(max_attempts=3)
        )
        assert outcomes["a"].status == "failed"
        assert outcomes["a"].attempts == 3
        assert executor.retries == 2
        assert [f.kind for f in outcomes["a"].failures] == ["error"] * 3

    def test_salvage_mode_finishes_everything_completable(self):
        executor, outcomes, collected = run_executor(
            _bad_prefix_worker, ["bad-0", "good-0", "good-1"]
        )
        assert outcomes["bad-0"].status == "failed"
        assert outcomes["good-0"].status == "ok"
        assert outcomes["good-1"].status == "ok"
        assert not executor.aborted
        assert set(collected) == {"good-0", "good-1"}

    def test_fail_fast_aborts_the_remainder(self):
        executor, outcomes, collected = run_executor(
            _bad_prefix_worker,
            ["bad-0", "good-0", "good-1"],
            ResilienceConfig(fail_fast=True),
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
            ResilienceConfig(max_failures=2),
        )
        statuses = [outcomes[r].status for r in ("bad-0", "bad-1", "good-0", "bad-2")]
        assert statuses == ["failed", "failed", "aborted", "aborted"]
        assert executor.failed == 2
        assert executor.aborted


# ----- pooled executor --------------------------------------------------------


class TestPooledExecutor:
    def test_worker_crash_breaks_pool_then_recovers(self, tmp_path):
        executor, outcomes, collected = run_executor(
            functools.partial(_crash_once_worker, str(tmp_path / "crashed")),
            ["a", "b"],
            jobs=2,
        )
        assert {o.status for o in outcomes.values()} == {"ok"}
        assert set(collected) == {"a", "b"}
        assert executor.pool_breaks == 1
        assert executor.failed == 0
        # Every task that rode the broken pool was charged a "pool" failure.
        kinds = {f.kind for o in outcomes.values() for f in o.failures}
        assert kinds == {"pool"}

    def test_break_on_submit_is_charged_so_attempts_bound_it(self, monkeypatch):
        monkeypatch.setattr(resilience_module, "ProcessPoolExecutor", _BrokenPool)
        executor, outcomes, collected = run_executor(
            _payload, ["a", "b"], ResilienceConfig(max_attempts=2), jobs=2
        )
        assert collected == {}
        for outcome in outcomes.values():
            assert (outcome.status, outcome.attempts) == ("failed", 2)
            assert [f.kind for f in outcome.failures] == ["pool", "pool"]
        assert executor.pool_breaks == 4

    def test_hung_run_is_killed_and_fails_for_good(self, tmp_path):
        # "short" finishes first, so "stall-once" starts 0.3 s after
        # "hang": it is still within its budget when "hang" is killed.
        executor, outcomes, collected = run_executor(
            functools.partial(_timing_worker, str(tmp_path)),
            ["short", "hang", "stall-once"],
            ResilienceConfig(timeout=1.0),
            jobs=2,
        )
        hang = outcomes["hang"]
        assert hang.status == "failed"
        assert hang.attempts == 1
        assert [f.kind for f in hang.failures] == ["timeout"]
        assert hang.failures[0].elapsed >= 1.0
        assert executor.timeouts == 1
        assert executor.retries == 0
        # The run killed as collateral restarted without a charge.
        stalled = outcomes["stall-once"]
        assert (stalled.status, stalled.attempts, stalled.failures) == ("ok", 1, [])
        assert set(collected) == {"short", "stall-once"}

    def test_invariant_violation_crosses_the_pool_intact(self):
        """Satellite: a violation in a worker must arrive structured."""
        executor, outcomes, collected = run_executor(
            _invariant_worker, ["a", "b"], jobs=2
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
            future = pool.submit(_invariant_worker, ("a", None))
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


# ----- the runner under faults ------------------------------------------------

#: A child process runs a batch, one point per thread count on its
#: command line, whose every worker dies.  The batch must end in
#: SweepFailure (exit 3 below) and the child must survive it: a
#: regression that lets the death reach the caller kills only the child.
_ALWAYS_DYING_BATCH = textwrap.dedent(
    """
    import os
    import sys

    import repro.analysis.runner as runner_module
    from repro.analysis.resilience import ResilienceConfig, SweepFailure


    def die(args):
        os._exit(71)


    if __name__ == "__main__":
        runner_module._pool_execute = die
        runner = runner_module.Runner(
            jobs=2, resilience=ResilienceConfig(max_attempts=3)
        )
        points = [
            runner_module.RunRequest("mmx", int(n), scale=1.2e-5)
            for n in sys.argv[1:]
        ]
        try:
            runner.run_batch(points)
        except SweepFailure as failure:
            print(failure.summary())
            kinds = {f.kind for o in failure.failed for f in o.failures}
            print("kinds:", sorted(kinds))
            sys.exit(3)
    """
)


class TestRunnerResilience:
    def test_injected_crash_retries_to_a_bit_identical_result(
        self, tmp_path, monkeypatch
    ):
        points = [
            tiny(), tiny(n_threads=4), tiny(isa="mom"), tiny(isa="mom", n_threads=4)
        ]
        victim = points[2]
        serial = Runner().run_batch(points)

        monkeypatch.setattr(
            runner_module,
            "_pool_execute",
            functools.partial(_die_once_then_simulate, str(tmp_path / "died"), victim),
        )
        cache_dir = str(tmp_path / "cache")
        runner = Runner(jobs=2, cache_dir=cache_dir)
        results = runner.run_batch(points)
        assert runner.stats.pool_breaks == 1
        assert runner.stats.failed_points == 0
        assert runner.stats.retries >= 1
        outcome = runner.outcomes[victim]
        assert (outcome.status, outcome.attempts) == ("ok", 2)
        assert [f.kind for f in outcome.failures] == ["pool"]
        for point in points:
            assert canonical(results[point]) == canonical(serial[point])

        warm = Runner(cache_dir=cache_dir)
        served = warm.run_batch(points)
        assert warm.stats.disk_hits == 4
        assert warm.stats.simulated == 0
        for point in points:
            assert canonical(served[point]) == canonical(serial[point])

    @staticmethod
    def _always_dying_batch(tmp_path, threads):
        script = tmp_path / "always_dying.py"
        script.write_text(_ALWAYS_DYING_BATCH)
        return subprocess.run(
            [sys.executable, str(script), *map(str, threads)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC_PATH},
            timeout=120,
        )

    def test_always_dying_worker_ends_in_sweep_failure(self, tmp_path):
        proc = self._always_dying_batch(tmp_path, (2, 4))
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "2 of 2 simulation points failed permanently" in proc.stdout
        assert proc.stdout.count("after 3 attempt(s)") == 2
        assert "kinds: ['pool']" in proc.stdout

    def test_one_point_batch_is_pooled_so_a_dying_worker_is_contained(
        self, tmp_path
    ):
        proc = self._always_dying_batch(tmp_path, (2,))
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "1 of 1 simulation points failed permanently" in proc.stdout
        assert proc.stdout.count("after 3 attempt(s)") == 1
        assert "kinds: ['pool']" in proc.stdout

    def test_one_point_batch_is_pooled_so_its_timeout_fires(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner_module, "_pool_execute", _hang_forever)
        runner = Runner(
            cache_dir=str(tmp_path), jobs=2,
            resilience=ResilienceConfig(timeout=0.5),
        )
        started = time.monotonic()
        with pytest.raises(SweepFailure) as info:
            runner.run(tiny())
        assert time.monotonic() - started < 15.0, "hang was slept out"
        (outcome,) = info.value.failed
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert runner.stats.timeouts == 1

    def test_injected_corruption_is_quarantined_and_recomputed(self, tmp_path):
        reference = Runner(cache_dir=str(tmp_path)).run(tiny())
        (entry,) = tmp_path.glob("*.json")
        # A well-formed envelope with the wrong checksum: only the
        # checksum can tell it from a good entry.
        entry.write_text(
            '{"checksum": "0000000000000000", "payload": {"result_format": 2}}'
        )
        scan = verify_cache(str(tmp_path))
        assert len(scan["corrupt"]) == 1

        warm = Runner(cache_dir=str(tmp_path))
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
        def selective(args):
            if args[0].n_threads == 4:
                raise ValueError("synthetic permanent failure")
            return _SIMULATE(args)

        monkeypatch.setattr(runner_module, "_pool_execute", selective)
        good, bad = tiny(), tiny(n_threads=4)
        runner = Runner(cache_dir=str(tmp_path))
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
        self, tmp_path, monkeypatch
    ):
        # The hang lands on the last attempt of the budget, so nothing
        # can save the point.  The timeout kill must still fire and the
        # sweep must end in SweepFailure — not sleep out the hang, and
        # not wait forever on a worker that will never report.
        monkeypatch.setattr(runner_module, "_pool_execute", _hang_forever)
        # jobs=2 forces pooled execution: only a pool can preempt a hang.
        runner = Runner(
            cache_dir=str(tmp_path), jobs=2,
            resilience=ResilienceConfig(timeout=0.5, max_attempts=1),
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
        assert runner.stats.retries == 0
