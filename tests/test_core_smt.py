"""Integration tests for the SMT processor pipeline."""

import pytest

from repro.core import FetchPolicy, SMTConfig, SMTProcessor
from repro.memory import ConventionalHierarchy, DecoupledHierarchy, PerfectMemory
from repro.tracegen import build_program_trace
from repro.tracegen.builder import TraceBuilder
from repro.tracegen.program import Trace
from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.workloads import build_workload_traces

SCALE = 1.2e-5


def tiny_trace(isa="mmx", kind="int_chain", n=200, seed=1) -> Trace:
    """Hand-built micro-traces with known timing properties."""
    builder = TraceBuilder(isa, seed=seed)
    if kind == "int_chain":
        for __ in range(n):
            builder.int_op()
    elif kind == "branchy":
        base = builder.alloc_code(2)
        for i in range(n):
            builder.int_op(pc=base)
            builder.branch(taken=(i % 2 == 0), target=base, pc=base + 4)
    elif kind == "loads":
        for i in range(n):
            builder.load(0x100000 + 8 * (i % 64))
    elif kind == "streams":
        for i in range(n):
            builder.mom_load(0x100000 + 128 * i, 16, 8)
            builder.mom_op(16)
    else:
        raise ValueError(kind)
    return Trace(
        name="tiny",
        isa=isa,
        instructions=builder.instructions,
        mmx_equivalent=sum(i.stream_length for i in builder.instructions),
        mix=WORKLOAD_MIXES["gsmdec"],
    )


def run_tiny(trace, isa=None, n_threads=1, memory=None, **kw):
    memory = memory or PerfectMemory()
    config = SMTConfig(isa=isa or trace.isa, n_threads=n_threads)
    processor = SMTProcessor(
        config,
        memory,
        [trace],
        completions_target=kw.pop("completions_target", 1),
        warmup_fraction=kw.pop("warmup_fraction", 0.0),
        **kw,
    )
    return processor.run()


class TestBasicExecution:
    def test_all_instructions_commit(self):
        result = run_tiny(tiny_trace(n=300))
        assert result.committed_instructions == 300
        assert result.program_completions == 1

    def test_ipc_bounded_by_issue_width(self):
        result = run_tiny(tiny_trace(kind="int_chain", n=2000))
        assert 0.5 < result.ipc <= 4.0     # 4 integer ALUs

    def test_streams_count_expanded(self):
        trace = tiny_trace(isa="mom", kind="streams", n=50)
        result = run_tiny(trace)
        assert result.committed_instructions == 50 * (16 + 16)

    def test_cycles_positive_and_finite(self):
        result = run_tiny(tiny_trace(n=50))
        assert 0 < result.cycles < 10_000

    def test_isa_mismatch_rejected(self):
        trace = tiny_trace(isa="mmx")
        with pytest.raises(ValueError):
            SMTProcessor(SMTConfig(isa="mom"), PerfectMemory(), [trace])

    def test_livelock_guard_raises(self):
        trace = tiny_trace(n=5000)
        processor = SMTProcessor(
            SMTConfig(), PerfectMemory(), [trace], max_cycles=10
        )
        with pytest.raises(RuntimeError):
            processor.run()

    @pytest.mark.parametrize("sampling", [None, (2000, 400, 100)])
    def test_frozen_machine_fails_fast(self, sampling):
        # Every fetch misses for 10,000 cycles, so nothing ever commits.
        # The progress watchdog must raise long before max_cycles, in the
        # full-detail loop and in the sampled schedule's detailed
        # stretches alike.
        class FrozenFetch(PerfectMemory):
            def fetch(self, thread, pc, now):
                return now + 10_000

        processor = SMTProcessor(
            SMTConfig(n_threads=2, sampling=sampling),
            FrozenFetch(),
            build_workload_traces("mmx", scale=SCALE),
            max_cycles=64 << 20,
        )
        with pytest.raises(RuntimeError, match="no progress between cycles"):
            processor.run()
        assert processor.now < 4 << 20


class TestBranchHandling:
    def test_branchy_code_slower_than_straightline(self):
        straight = run_tiny(tiny_trace(kind="int_chain", n=1000))
        branchy = run_tiny(tiny_trace(kind="branchy", n=500))
        # Same instruction count; the alternating branch must learn first
        # and every taken branch truncates the fetch group.
        assert branchy.ipc < straight.ipc

    def test_mispredict_rate_reported(self):
        result = run_tiny(tiny_trace(kind="branchy", n=500))
        assert 0.0 <= result.mispredict_rate <= 1.0


class TestSmtScaling:
    @pytest.fixture(scope="class")
    def workload(self):
        return {
            isa: build_workload_traces(isa, scale=SCALE) for isa in ("mmx", "mom")
        }

    def test_more_threads_more_throughput_ideal(self, workload):
        results = {}
        for n in (1, 4):
            processor = SMTProcessor(
                SMTConfig(isa="mmx", n_threads=n),
                PerfectMemory(),
                build_workload_traces("mmx", scale=SCALE),
            )
            results[n] = processor.run()
        assert results[4].eipc > 1.5 * results[1].eipc

    def test_mom_beats_mmx_on_equivalent_work(self, workload):
        eipc = {}
        for isa in ("mmx", "mom"):
            processor = SMTProcessor(
                SMTConfig(isa=isa, n_threads=2),
                PerfectMemory(),
                build_workload_traces(isa, scale=SCALE),
            )
            eipc[isa] = processor.run().eipc
        assert eipc["mom"] > eipc["mmx"]

    def test_completions_target_respected(self, workload):
        processor = SMTProcessor(
            SMTConfig(isa="mmx", n_threads=2),
            PerfectMemory(),
            build_workload_traces("mmx", scale=SCALE),
            completions_target=3,
        )
        result = processor.run()
        assert result.program_completions == 3

    def test_per_program_committed_tracked(self, workload):
        processor = SMTProcessor(
            SMTConfig(isa="mmx", n_threads=1),
            PerfectMemory(),
            build_workload_traces("mmx", scale=SCALE),
            completions_target=2,
        )
        result = processor.run()
        assert sum(result.per_program_committed.values()) > 0

    def test_fetch_policies_all_run(self, workload):
        for policy in FetchPolicy:
            processor = SMTProcessor(
                SMTConfig(isa="mom", n_threads=2),
                PerfectMemory(),
                build_workload_traces("mom", scale=SCALE),
                fetch_policy=policy,
            )
            result = processor.run()
            assert result.fetch_policy == policy.value
            assert result.committed_instructions > 0


class TestMemoryIntegration:
    def test_real_memory_slower_than_perfect(self):
        trace = build_program_trace("mpeg2enc", "mmx", scale=SCALE)
        ideal = run_tiny(trace, memory=PerfectMemory())
        real = run_tiny(trace, memory=ConventionalHierarchy())
        assert real.eipc < ideal.eipc

    def test_decoupled_hierarchy_runs_mom(self):
        trace = build_program_trace("mpeg2enc", "mom", scale=SCALE)
        result = run_tiny(trace, memory=DecoupledHierarchy())
        assert result.committed_instructions == trace.expanded_length
        assert result.memory.l2.accesses > 0

    def test_cache_stats_populated(self):
        trace = build_program_trace("jpegenc", "mmx", scale=SCALE)
        result = run_tiny(trace, memory=ConventionalHierarchy())
        assert result.memory.l1.accesses > 0
        assert result.memory.icache.accesses > 0
        assert 0.3 < result.memory.l1.hit_rate <= 1.0

    def test_warmup_excludes_cold_start(self):
        trace = build_program_trace("jpegenc", "mmx", scale=SCALE)
        cold = run_tiny(trace, memory=ConventionalHierarchy(), warmup_fraction=0.0)
        warm = run_tiny(trace, memory=ConventionalHierarchy(), warmup_fraction=0.4)
        assert warm.memory.l1.hit_rate >= cold.memory.l1.hit_rate
        assert warm.committed_instructions < cold.committed_instructions


class TestDeterminism:
    def test_same_run_same_result(self):
        results = []
        for __ in range(2):
            processor = SMTProcessor(
                SMTConfig(isa="mom", n_threads=2),
                ConventionalHierarchy(),
                build_workload_traces("mom", scale=SCALE),
            )
            results.append(processor.run())
        assert results[0].cycles == results[1].cycles
        assert results[0].committed_instructions == results[1].committed_instructions
        assert results[0].memory.l1.hits == results[1].memory.l1.hits
