"""SMARTS-style statistical sampling: engine, statistics, plumbing.

Covers the three properties the sampled mode guarantees:

* **Convergence** — at scale 1e-4 the full-detail EIPC falls inside the
  sampled run's own 95 % confidence interval (the headline accuracy
  claim of the sampling methodology);
* **Determinism** — sampled results are bit-identical between serial
  and parallel execution and between cold and warm caches, exactly like
  full-detail results;
* **Faithful warming** — the fast-forward path updates cache tag and
  coherence state the detailed path would, and nothing else (no
  statistics, no timing structures).
"""

import json
import math

import pytest

from repro.analysis.runner import (
    RunRequest,
    Runner,
    result_from_dict,
    result_to_dict,
    workload_traces,
)
from repro.core import SMTConfig, SMTProcessor
from repro.core.smt import _FF_CHUNK, _FF_FETCH, _ff_plan
from repro.core.stats import mean_ci95, t_critical_95
from repro.memory.cache import L2Cache
from repro.memory.decoupled import DecoupledHierarchy
from repro.memory.dram import RambusChannel
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.interface import AccessType
from repro.tracegen.builder import TraceBuilder
from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import Trace
from repro.workloads import build_workload_traces

#: Tiny-scale runs for the fast structural tests.
SCALE = 1.2e-5
#: Sampling parameters sized so several windows fit a tiny-scale run.
TINY_SAMPLING = (2000, 400, 100)
#: The convergence tests run at the fidelity the issue specifies.
CONVERGENCE_SCALE = 1e-4
CONVERGENCE_SAMPLING = (20000, 2000, 500)


def run_processor(
    isa="mmx",
    n_threads=2,
    scale=SCALE,
    sampling=TINY_SAMPLING,
    memory=None,
    sanitize=False,
):
    processor = SMTProcessor(
        SMTConfig(
            isa=isa, n_threads=n_threads, sampling=sampling, sanitize=sanitize
        ),
        memory if memory is not None else ConventionalHierarchy(),
        build_workload_traces(isa, scale=scale),
    )
    return processor.run()


# ------------------------------------------------------------------ statistics


class TestConfidenceMath:
    def test_t_critical_exact_rows(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(5) == pytest.approx(2.571)
        assert t_critical_95(30) == pytest.approx(2.042)

    def test_t_critical_interpolates_conservatively(self):
        # Between tabulated rows the next bound's (larger) value is used.
        assert t_critical_95(35) == t_critical_95(40)
        assert t_critical_95(1000) == pytest.approx(1.960)

    def test_t_critical_rejects_zero_df(self):
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_mean_ci95_known_values(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = mean_ci95(samples)
        assert mean == pytest.approx(3.0)
        # s = sqrt(2.5), CI = t(4) * s / sqrt(5)
        assert half == pytest.approx(2.776 * math.sqrt(2.5 / 5), rel=1e-3)

    def test_mean_ci95_single_sample_is_unbounded(self):
        mean, half = mean_ci95([2.5])
        assert mean == 2.5
        assert math.isinf(half)

    def test_mean_ci95_empty_raises(self):
        with pytest.raises(ValueError):
            mean_ci95([])


class TestSamplingConfig:
    def test_lists_normalize_to_int_tuples(self):
        config = SMTConfig(sampling=[1000.0, 100, 50])
        assert config.sampling == (1000, 100, 50)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            SMTConfig(sampling=(1000, 100))

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            SMTConfig(sampling=(1000, 0, 50))

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            SMTConfig(sampling=(-1, 100, 50))


# ------------------------------------------------------------------ the engine


class TestSampledRun:
    @pytest.fixture(scope="class")
    def sampled(self):
        return run_processor()

    def test_produces_windows(self, sampled):
        assert sampled.sampling == list(TINY_SAMPLING)
        assert len(sampled.samples) >= 2

    def test_headline_is_ratio_of_sums(self, sampled):
        cycles = sum(s[0] for s in sampled.samples)
        committed = sum(s[1] for s in sampled.samples)
        equivalent = sum(s[2] for s in sampled.samples)
        assert sampled.cycles == cycles
        assert sampled.committed_instructions == committed
        assert sampled.committed_equivalent == pytest.approx(equivalent)
        assert sampled.eipc == pytest.approx(equivalent / cycles)

    def test_ci_accessors(self, sampled):
        samples = sampled.eipc_samples
        assert len(samples) == len(sampled.samples)
        mean, half = mean_ci95(samples)
        assert sampled.eipc_mean == pytest.approx(mean)
        assert sampled.eipc_ci95 == pytest.approx(half)

    def test_full_detail_result_has_no_samples(self):
        full = run_processor(sampling=None)
        assert full.sampling is None
        assert full.samples is None
        assert full.eipc_ci95 == 0.0
        assert full.eipc_mean == full.eipc

    def test_workload_runs_to_completion(self, sampled):
        # The fast-forward rotates programs exactly like the commit
        # stage: the multiprogramming methodology is preserved.
        assert sampled.program_completions == 8

    def test_degenerate_ff_still_measures(self):
        # A fast-forward longer than the whole workload is clamped so
        # at least a few periods (hence windows) fit.
        result = run_processor(sampling=(10**9, 400, 100))
        assert len(result.samples) >= 2

    def test_sanitizer_clean_over_sampled_run(self):
        # The runtime sanitizer checks pipeline/memory invariants at the
        # detailed windows' boundaries; a sampled run must not trip it
        # (drain hands over clean state) on either hierarchy.
        result = run_processor(sanitize=True)
        assert result.samples
        decoupled = run_processor(
            isa="mom", memory=DecoupledHierarchy(), sanitize=True
        )
        assert decoupled.samples


class TestContinuousSchedule:
    def test_ledger_counts_each_program_once(self):
        # The per-program ledger is the work a sampled run advanced: the
        # runner's throughput provenance and the perf benchmark's
        # sim_kips read it.  Over many sampling periods, every program
        # the 1-thread schedule runs must be counted exactly once.
        request = RunRequest(
            "mmx", 1, scale=2e-5, sampling=(1000, 200, 50)
        )
        traces = workload_traces(request.isa, request.scale)
        expected: dict[str, int] = {}
        for i in range(request.completions_target):
            trace = traces[i % len(traces)]
            expected[trace.name] = (
                expected.get(trace.name, 0) + trace.expanded_length
            )
        runner = Runner()
        result = runner.run(request)
        assert len(result.samples) > 10
        assert result.per_program_committed == expected
        assert runner.stats.sim_instructions == sum(expected.values())

    @pytest.mark.parametrize(
        "hierarchy", [ConventionalHierarchy, DecoupledHierarchy]
    )
    def test_sampled_run_keeps_an_injected_l2(self, hierarchy):
        # CMP cores share one system L2 by injection; a sampled run must
        # warm and measure that L2, not a private replacement.
        dram = RambusChannel()
        l2 = L2Cache(dram)
        memory = hierarchy(dram=dram, l2=l2)
        result = run_processor(memory=memory)
        assert len(result.samples) >= 2
        assert memory.l2 is l2
        assert memory.dram is dram
        assert memory.stats.l2 is l2.stats
        assert l2.stats.accesses > 0


class TestConvergence:
    @pytest.mark.parametrize("isa,n_threads", [("mmx", 1), ("mom", 8)])
    def test_sampled_ci_covers_full_detail_eipc(self, isa, n_threads):
        full = run_processor(
            isa=isa, n_threads=n_threads,
            scale=CONVERGENCE_SCALE, sampling=None,
        )
        sampled = run_processor(
            isa=isa, n_threads=n_threads,
            scale=CONVERGENCE_SCALE, sampling=CONVERGENCE_SAMPLING,
        )
        assert len(sampled.samples) >= 4
        assert abs(full.eipc - sampled.eipc_mean) <= sampled.eipc_ci95, (
            f"full-detail EIPC {full.eipc:.4f} outside sampled "
            f"{sampled.eipc_mean:.4f} ± {sampled.eipc_ci95:.4f}"
        )


# ------------------------------------------------------------------ warming


class TestWarmingPath:
    def test_conventional_warm_load_installs_line(self):
        mem = ConventionalHierarchy()
        mem.warm(0, 0x4000, AccessType.SCALAR_LOAD)
        done = mem.access(0, 0x4000, AccessType.SCALAR_LOAD, now=0)
        assert mem.stats.l1.hits == 1
        assert done <= 2

    def test_conventional_warm_store_does_not_allocate(self):
        mem = ConventionalHierarchy()
        mem.warm(0, 0x4000, AccessType.SCALAR_STORE)
        mem.access(0, 0x4000, AccessType.SCALAR_LOAD, now=0)
        assert mem.stats.l1.hits == 0

    def test_warm_touches_no_statistics(self):
        mem = ConventionalHierarchy()
        mem.warm(0, 0x4000, AccessType.SCALAR_LOAD)
        mem.warm_stream(0, 0x8000, 8, 32, AccessType.VECTOR_LOAD)
        mem.warm_fetch(0, 0x100)
        stats = mem.stats
        assert stats.l1.accesses == 0
        assert stats.icache.accesses == 0
        assert stats.l2.accesses == 0
        assert stats.dram_accesses == 0
        assert stats.bank_conflict_cycles == 0

    def test_decoupled_warm_vector_applies_exclusive_bit(self):
        mem = DecoupledHierarchy()
        from repro.memory.interface import physical_address

        phys = physical_address(0, 0x4000)
        mem.access(0, 0x4000, AccessType.SCALAR_LOAD, now=0)
        assert mem.l1.contains(phys)
        mem.warm(0, 0x4000, AccessType.VECTOR_LOAD)
        assert not mem.l1.contains(phys)
        # The warming invalidation is not a counted coherence event.
        assert mem.stats.coherence_invalidations == 0

    def test_decoupled_warm_scalar_load_installs_line(self):
        mem = DecoupledHierarchy()
        mem.warm(0, 0x4000, AccessType.SCALAR_LOAD)
        mem.access(0, 0x4000, AccessType.SCALAR_LOAD, now=0)
        assert mem.stats.l1.hits == 1


# ------------------------------------------------------------- fast-forward

#: Two I-lines of one 4 KB page, and a line of another page.
LINE_A, LINE_B, LINE_X = 0x10000, 0x10020, 0x11000


def pc_trace(pcs) -> Trace:
    """A hand-built trace of integer operations at the given PCs."""
    builder = TraceBuilder("mmx", seed=1)
    for pc in pcs:
        builder.int_op(pc=pc)
    return Trace(
        name="hand",
        isa="mmx",
        instructions=builder.instructions,
        mmx_equivalent=len(pcs),
        mix=WORKLOAD_MIXES["gsmdec"],
    )


def iline_prevs(trace: Trace) -> list[int]:
    """Each I-line event's same-page predecessor index (-1: none)."""
    _, __, events, ___ = _ff_plan(trace)
    return [event[3] for event in events if event[1] == _FF_FETCH]


class TestFastForwardPlan:
    def test_same_page_repeat_is_marked_skippable(self):
        trace = pc_trace([LINE_A, LINE_B, LINE_A])
        assert iline_prevs(trace) == [-1, -1, 0]

    def test_repeat_across_pages_is_not(self):
        trace = pc_trace([LINE_A, LINE_X, LINE_A])
        assert iline_prevs(trace) == [-1, -1, -1]

    def test_repeat_after_a_chunk_boundary_is_still_warmed(self):
        # The repeat at index 2 follows its predecessor in the same
        # chunk and is skipped; the one at the first index of the second
        # chunk follows other threads' chunks in a real run, so it warms.
        pcs = [LINE_A, LINE_B, LINE_A]
        pcs += [LINE_B] * (_FF_CHUNK - len(pcs)) + [LINE_A]
        trace = pc_trace(pcs)
        assert iline_prevs(trace) == [-1, -1, 0, 1, 2]
        memory = ConventionalHierarchy()
        warm_fetch = memory.warm_fetch
        warmed = []

        def counting_warm_fetch(thread, pc):
            warmed.append(pc)
            warm_fetch(thread, pc)

        memory.warm_fetch = counting_warm_fetch
        processor = SMTProcessor(
            SMTConfig(isa="mmx", n_threads=1, sampling=TINY_SAMPLING),
            memory,
            [trace],
            completions_target=1,
        )
        processor._fast_forward(len(pcs))
        assert processor.committed == len(pcs)
        assert warmed == [LINE_A, LINE_B, LINE_A]

    @pytest.mark.parametrize("isa", ["mmx", "mom"])
    def test_plan_events_hold_only_ints(self, isa):
        # Int-only tuples leave the cyclic GC's tracked set at their first
        # collection; an object field (an enum, None) would keep a
        # million plan events in every full collection.
        for trace in build_workload_traces(isa, scale=SCALE):
            _, __, events, ___ = _ff_plan(trace)
            assert events
            for event in events:
                assert all(type(field) in (int, bool) for field in event)


# ------------------------------------------------------------------ plumbing


def sampled_request(**overrides) -> RunRequest:
    base = dict(
        isa="mmx", n_threads=2, scale=SCALE, sampling=TINY_SAMPLING
    )
    base.update(overrides)
    return RunRequest(**base)


class TestSampledRunnerPlumbing:
    def test_result_round_trip_preserves_samples(self):
        result = Runner().run(sampled_request())
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rebuilt == result
        assert rebuilt.samples == result.samples

    def test_list_and_tuple_sampling_are_one_request(self):
        assert sampled_request(
            sampling=list(TINY_SAMPLING)
        ) == sampled_request()

    def test_sampled_and_full_detail_never_share_cache_keys(self):
        assert (
            sampled_request().fingerprint("v")
            != sampled_request(sampling=None).fingerprint("v")
        )
        assert (
            sampled_request().fingerprint("v")
            != sampled_request(sampling=(2000, 400, 200)).fingerprint("v")
        )

    def test_parallel_matches_serial_bit_for_bit(self):
        batch = [
            sampled_request(),
            sampled_request(isa="mom"),
            sampled_request(memory="decoupled"),
            sampled_request(n_threads=4),
        ]
        serial = Runner().run_batch(batch)
        parallel = Runner(jobs=2).run_batch(batch)
        for request in batch:
            assert parallel[request] == serial[request], request
            assert parallel[request].samples, request

    def test_warm_cache_matches_cold_bit_for_bit(self, tmp_path):
        batch = [sampled_request(), sampled_request(isa="mom")]
        cold = Runner(cache_dir=str(tmp_path)).run_batch(batch)
        warm_runner = Runner(cache_dir=str(tmp_path))
        warm = warm_runner.run_batch(batch)
        assert warm_runner.stats.simulated == 0
        assert warm == cold
        for request in batch:
            assert warm[request].samples == cold[request].samples

    def test_throughput_accounting_counts_fast_forwarded_work(
        self, tmp_path
    ):
        # A sampled run's committed_instructions covers only the
        # measurement windows; the runner's throughput provenance must
        # count the whole workload the run advanced (the basis of the
        # sampling speedup), cold and warm alike.
        cold = Runner(cache_dir=str(tmp_path))
        result = cold.run(sampled_request())
        advanced = sum(result.per_program_committed.values())
        assert advanced > result.committed_instructions
        assert cold.stats.sim_instructions == advanced
        warm = Runner(cache_dir=str(tmp_path))
        warm.run(sampled_request())
        assert warm.stats.cached_instructions == advanced

    def test_fig6_sampled_report_states_ci_and_resolution(self):
        from repro.analysis.experiments import run_fig6_fetch

        result = run_fig6_fetch(
            scale=SCALE, threads=(2,), sampling=TINY_SAMPLING
        )
        assert "±" in result.report
        assert "resolve" in result.report
        assert set(result.measured["ranking_resolved"]) == {"mmx", "mom"}
        for isa in ("mmx", "mom"):
            # RR is the baseline, never the best policy: each ranking
            # line orders one challenger and RR the way the EIPCs do.
            line = next(
                line for line in result.report.splitlines()
                if line.startswith(f"{isa.upper()} best-policy gain")
            )
            first, sign, second = line.split("ranking ")[1].split()[:3]
            assert sign == ">"
            assert [first, second].count("RR") == 1
            assert (first != "RR") == (result.measured["gain"][isa] >= 0)
