"""Targeted tests of SMT pipeline corner behaviours."""

from repro.core import FetchPolicy, SMTConfig, SMTProcessor
from repro.core.params import Resources, scaled_resources
from repro.isa.registers import RegisterClass
from repro.memory import PerfectMemory
from repro.tracegen.builder import TraceBuilder
from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import Trace


def make_trace(emit, isa="mmx", name="tiny"):
    builder = TraceBuilder(isa, seed=7)
    emit(builder)
    return Trace(
        name=name,
        isa=isa,
        instructions=builder.instructions,
        mmx_equivalent=sum(i.stream_length for i in builder.instructions),
        mix=WORKLOAD_MIXES["gsmdec"],
    )


def run(trace, config=None, **kw):
    processor = SMTProcessor(
        config or SMTConfig(isa=trace.isa),
        PerfectMemory(),
        [trace],
        completions_target=1,
        warmup_fraction=0.0,
        **kw,
    )
    result = processor.run()
    return processor, result


class TestDependencyTiming:
    def test_independent_ops_reach_issue_width(self):
        # 400 integer ops with no sources: IPC should approach 4.
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.ipc > 3.0

    def test_serial_chain_limited_to_one_per_cycle(self):
        def emit(builder):
            base = builder.alloc_code(1)
            prev = builder.int_op(pc=base)
            for __ in range(300):
                inst = builder.int_op(pc=base)
                inst.srcs = (prev.dst,)
                prev = inst
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.ipc < 1.4          # true dependence chain

    def test_long_latency_op_blocks_dependent(self):
        def emit(builder):
            base = builder.alloc_code(2)
            mul = builder.int_op(mul=True, pc=base)       # 8-cycle latency
            dep = builder.int_op(pc=base + 4)
            dep.srcs = (mul.dst,)
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.cycles >= 9


class TestResourceStalls:
    def test_tiny_window_throttles_ilp(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        big = scaled_resources(1)
        tiny = Resources(
            rename_regs=dict(big.rename_regs),
            queue_sizes=dict(big.queue_sizes),
            graduation_window=4,
        )
        __, result_tiny = run(
            trace, config=SMTConfig(isa="mmx", resources=tiny)
        )
        __, result_big = run(trace)
        assert result_tiny.ipc < result_big.ipc

    def test_rename_pool_exhaustion_throttles(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        big = scaled_resources(1)
        regs = dict(big.rename_regs)
        regs[RegisterClass.INT] = 3
        starved = Resources(
            rename_regs=regs,
            queue_sizes=dict(big.queue_sizes),
            graduation_window=big.graduation_window,
        )
        __, result = run(trace, config=SMTConfig(isa="mmx", resources=starved))
        # Three rename registers sustain ~1.5 IPC (alloc/free round trip).
        assert result.ipc < 2.0


class TestWarmupBoundary:
    def test_warmup_shrinks_measured_window(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(500):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        processor = SMTProcessor(
            SMTConfig(isa="mmx"),
            PerfectMemory(),
            [trace],
            completions_target=1,
            warmup_fraction=0.5,
        )
        result = processor.run()
        # Roughly half the instructions fall inside the measured window.
        assert 150 < result.committed_instructions < 350

    def test_zero_warmup_measures_everything(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(100):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.committed_instructions == 100


class TestFetchPolicySelection:
    def test_policy_recorded_in_result(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(50):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        processor = SMTProcessor(
            SMTConfig(isa="mmx"),
            PerfectMemory(),
            [trace],
            fetch_policy=FetchPolicy.BALANCE,
            completions_target=1,
            warmup_fraction=0.0,
        )
        assert processor.run().fetch_policy == "balance"
