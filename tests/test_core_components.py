"""Unit tests for the SMT core building blocks."""

from dataclasses import replace

import pytest

from repro.core.branch import GsharePredictor
from repro.core.cmp import cmp_core_config
from repro.core.execute import VectorUnit
from repro.core.fetch import FetchPolicy
from repro.core.params import Resources, SMTConfig, scaled_resources
from repro.core.smt import SMTProcessor
from repro.isa.opcodes import Queue
from repro.isa.registers import RegisterClass
from repro.memory import PerfectMemory
from repro.obs import PipelineObserver
from repro.workloads import build_workload_traces
from tests.test_core_smt_details import make_trace, run


class TestGshare:
    def test_learns_always_taken(self):
        p = GsharePredictor()
        for __ in range(50):
            p.predict_and_update(0, 0x1000, True)
        assert p.mispredict_rate < 0.1

    def test_learns_alternating_pattern(self):
        p = GsharePredictor()
        for i in range(400):
            p.predict_and_update(0, 0x2000, i % 2 == 0)
        # With history the alternation becomes almost fully predictable.
        late = GsharePredictor()
        late._table = p._table
        late._history = dict(p._history)
        hits = sum(
            late.predict_and_update(0, 0x2000, i % 2 == 0) for i in range(100)
        )
        assert hits > 90

    def test_random_branch_about_half_wrong(self):
        import random

        rng = random.Random(3)
        p = GsharePredictor()
        for __ in range(2000):
            p.predict_and_update(0, 0x3000, rng.random() < 0.5)
        assert 0.35 < p.mispredict_rate < 0.65

    def test_per_thread_history_isolated(self):
        p = GsharePredictor()
        p.predict_and_update(0, 0x10, True)
        assert p._history.get(0) != p._history.get(1, None) or 1 not in p._history

    def test_reset_thread(self):
        p = GsharePredictor()
        p.predict_and_update(2, 0x10, True)
        p.reset_thread(2)
        assert p._history[2] == 0

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            GsharePredictor(table_bits=1)


class TestVectorUnit:
    def test_occupancy_two_lanes(self):
        unit = VectorUnit(lanes=2)
        assert unit.occupancy_of(16) == 8
        assert unit.occupancy_of(8) == 4
        assert unit.occupancy_of(1) == 1

    def test_reduction_is_serial(self):
        unit = VectorUnit(lanes=2)
        assert unit.occupancy_of(16, reduction=True) == 16

    def test_back_to_back_streams_serialize_on_occupancy(self):
        unit = VectorUnit(lanes=2)
        first = unit.execute(0, 16, latency=1)
        second = unit.execute(0, 16, latency=1)
        assert second - first == 8        # second waited for the pipe

    def test_startup_latency_applied(self):
        unit = VectorUnit(lanes=2)
        done = unit.execute(0, 2, latency=1)
        assert done == VectorUnit.STARTUP + 1

    def test_busy_accounting(self):
        unit = VectorUnit(lanes=4)
        unit.execute(0, 16, latency=1)
        assert unit.busy_cycles == 4

    def test_lane_validation(self):
        with pytest.raises(ValueError):
            VectorUnit(lanes=0)


def independent_ints(n):
    def emit(builder):
        base = builder.alloc_code(1)
        for __ in range(n):
            inst = builder.int_op(pc=base)
            inst.srcs = ()
    return emit


def serial_muls(n):
    def emit(builder):
        base = builder.alloc_code(1)
        previous = builder.int_op(mul=True, pc=base)
        for __ in range(n - 1):
            inst = builder.int_op(mul=True, pc=base)
            inst.srcs = (previous.dst,)
            previous = inst
    return emit


def step_to_end(traces, config, sample):
    """Drive ``step()`` cycle by cycle until every trace has completed.

    Returns the processor and ``sample()`` taken after each cycle, so
    ``log[c]`` is the state at the end of cycle ``c``.
    """
    processor = SMTProcessor(
        config,
        PerfectMemory(),
        traces,
        completions_target=len(traces),
        warmup_fraction=0.0,
    )
    log = []
    while not processor.scheduler.done:
        processor.step()
        log.append(sample(processor))
        assert len(log) < 10_000, "workload did not complete"
    return processor, log


def int_queue_state(processor):
    queue = processor.queues[Queue.INT]
    return queue.occupancy, len(queue.ready)


class TestIssueQueue:
    """The queues are plain state; ``step()`` inserts, wakes and issues."""

    @pytest.fixture(scope="class")
    def producer_and_dependent(self):
        def emit(builder):
            base = builder.alloc_code(1)
            mul = builder.int_op(mul=True, pc=base)
            mul.srcs = ()
            dependent = builder.int_op(pc=base)
            dependent.srcs = (mul.dst,)
        observer = PipelineObserver()
        __, log = step_to_end(
            [make_trace(emit)],
            SMTConfig(isa="mmx", observe=observer),
            int_queue_state,
        )
        mul, dependent = observer.records
        assert mul.complete - mul.issue > 1
        return mul, dependent, log

    def test_ready_entry_pops(self):
        observer = PipelineObserver()
        processor, log = step_to_end(
            [make_trace(independent_ints(1))],
            SMTConfig(isa="mmx", observe=observer),
            int_queue_state,
        )
        (record,) = observer.records
        # Dispatched with no outstanding source, the entry is ready at
        # once; it issues the next cycle and frees its slot.
        assert log[record.dispatch] == (1, 1)
        assert record.issue == record.dispatch + 1
        assert log[record.issue] == (0, 0)
        assert processor.queues[Queue.INT].issued_total == 1

    def test_waiting_entry_not_ready(self, producer_and_dependent):
        mul, dependent, log = producer_and_dependent
        # Until the producer completes, the dependent holds its queue
        # slot off the ready list.
        assert dependent.dispatch <= mul.issue
        assert all(
            log[cycle] == (1, 0) for cycle in range(mul.issue, mul.complete)
        )

    def test_wake_moves_to_ready(self, producer_and_dependent):
        mul, dependent, log = producer_and_dependent
        # The completion wakes the dependent onto the ready list, and it
        # issues in that same cycle.
        assert dependent.issue == mul.complete
        assert log[dependent.issue] == (0, 0)

    def test_overflow_rejected(self):
        # A full queue takes no more entries: dispatch stalls instead
        # (the sanitizer's ``check_queue`` would flag an overflow).
        sizes = dict(scaled_resources(1).queue_sizes)
        sizes["int"] = 2
        config = SMTConfig(
            isa="mmx",
            issue_int=1,
            resources=replace(scaled_resources(1), queue_sizes=sizes),
            sanitize=True,
            observe="stalls",
        )
        processor, log = step_to_end(
            [make_trace(independent_ints(20))],
            config,
            lambda processor: processor.queues[Queue.INT].occupancy,
        )
        assert max(log) == 2
        stalls = processor.stall_observer.stall_breakdown()
        assert stalls["dispatch_queue_full"]["total"] > 0

    def test_fifo_order(self):
        observer = PipelineObserver()
        processor, __ = run(
            make_trace(independent_ints(12)),
            SMTConfig(isa="mmx", issue_int=1, observe=observer),
        )
        issues = [record.issue for record in observer.records]
        # One issue per cycle, in program order.
        assert issues == sorted(set(issues)) and len(issues) == 12
        queue = processor.queues[Queue.INT]
        assert queue.issued_total == 12
        assert queue.occupancy == 0 and not queue.ready


class TestGraduationWindow:
    """The window is plain state; ``step()`` inserts and retires."""

    def test_per_thread_fifo_order(self):
        def mul_then_ints(builder):
            serial_muls(2)(builder)
            independent_ints(6)(builder)
        observer = PipelineObserver()
        step_to_end(
            [
                make_trace(mul_then_ints, name="held"),
                make_trace(independent_ints(6), name="free"),
            ],
            SMTConfig(isa="mmx", n_threads=2, sanitize=True, observe=observer),
            lambda processor: None,
        )
        held = [r for r in observer.records if r.thread == 0]
        # Thread 1 is handed a second program once its first completes;
        # only the first one runs to its end.
        free = [r for r in observer.records if r.thread == 1][:6]
        # The held thread's integer ops complete before its multiplies,
        # yet retire in program order behind them ...
        assert min(r.complete for r in held[2:]) < held[1].complete
        commits = [r.commit for r in held]
        assert commits == sorted(commits)
        assert min(commits[2:]) >= held[1].commit
        # ... while the other thread retires past them.
        assert max(r.commit for r in free) < held[1].commit

    def test_shared_capacity(self):
        # Two threads in a window of 4: one streams independent integer
        # ops, the other a serial multiply chain whose entries wait.
        config = SMTConfig(
            isa="mmx",
            n_threads=2,
            resources=replace(scaled_resources(2), graduation_window=4),
            sanitize=True,
            observe="stalls",
        )
        traces = [
            make_trace(independent_ints(40), name="fast"),
            make_trace(serial_muls(12), name="slow"),
        ]
        processor, log = step_to_end(
            traces,
            config,
            lambda processor: (
                tuple(map(len, processor.window._fifos)),
                processor.window.occupancy,
            ),
        )
        assert max(occupancy for __, occupancy in log) == 4
        # The per-thread FIFOs account for the whole occupancy, and the
        # window is not partitioned: the slow thread's waiting entries
        # take more than half of it, and both threads are turned away
        # when it is full.
        assert all(sum(fifos) == occupancy for fifos, occupancy in log)
        assert max(fifos[1] for fifos, __ in log) > 2
        stalls = processor.stall_observer.stall_breakdown()
        per_thread = stalls["dispatch_window_full"]["per_thread"]
        assert len(per_thread) == 2 and all(per_thread)


class TestFetchPolicies:
    """Each policy's order, read from the live ``_fetch_order``."""

    @pytest.fixture(scope="class")
    def traces(self):
        return build_workload_traces("mom", scale=2e-5)

    @staticmethod
    def order(
        traces,
        policy,
        rotation=0,
        inflight_insts=(5, 1, 9, 3),
        inflight_ops=(5, 30, 9, 3),
        fetched_vector_last=(True, False, True, False),
        simd_occupancy=1,
    ):
        processor = SMTProcessor(
            SMTConfig(isa="mom", n_threads=4),
            PerfectMemory(),
            traces,
            fetch_policy=policy,
        )
        for ctx, insts, ops, vector in zip(
            processor.threads, inflight_insts, inflight_ops, fetched_vector_last
        ):
            ctx.inflight_insts = insts
            ctx.inflight_ops = ops
            ctx.fetched_vector_last = vector
        processor.queues[Queue.SIMD].occupancy = simd_occupancy
        processor._rotation = rotation
        return list(processor._fetch_order())

    def test_rr_rotates(self, traces):
        order = self.order(
            traces, FetchPolicy.RR, rotation=2, inflight_insts=[0] * 4,
            inflight_ops=[0] * 4, fetched_vector_last=[False] * 4,
            simd_occupancy=0,
        )
        assert order == [2, 3, 0, 1]

    def test_icount_prefers_emptiest(self, traces):
        order = self.order(traces, FetchPolicy.ICOUNT)
        assert order[0] == 1 and order[-1] == 2

    def test_ocount_counts_operations(self, traces):
        # Thread 1 has few instructions but many operations (long streams).
        order = self.order(traces, FetchPolicy.OCOUNT)
        assert order[0] == 3 and order[-1] == 1

    def test_balance_prefers_nonvector_when_pipe_busy(self, traces):
        order = self.order(traces, FetchPolicy.BALANCE)
        assert set(order[:2]) == {1, 3}

    def test_balance_prefers_vector_when_pipe_empty(self, traces):
        order = self.order(traces, FetchPolicy.BALANCE, simd_occupancy=0)
        assert set(order[:2]) == {0, 2}


class TestParams:
    def test_resources_grow_with_threads(self):
        r1, r8 = scaled_resources(1), scaled_resources(8)
        assert r8.graduation_window > r1.graduation_window
        assert (
            r8.rename_regs[RegisterClass.INT] > r1.rename_regs[RegisterClass.INT]
        )

    def test_odd_thread_counts_interpolate(self):
        assert scaled_resources(3) == scaled_resources(4)
        assert scaled_resources(16) == scaled_resources(8)

    def test_8_thread_resources_sit_near_saturation(self):
        # Table 1 sizes each thread count "to achieve reasonable (near
        # saturation) processor performance": at 8 threads, doubling
        # every resource buys little, and halving costs more.
        def scaled(factor):
            base = scaled_resources(8)
            return Resources(
                rename_regs={
                    cls: max(8, int(count * factor))
                    for cls, count in base.rename_regs.items()
                },
                queue_sizes={
                    name: max(8, int(size * factor))
                    for name, size in base.queue_sizes.items()
                },
                graduation_window=max(
                    16, int(base.graduation_window * factor)
                ),
            )

        for isa in ("mmx", "mom"):
            traces = build_workload_traces(isa, scale=2e-5)
            eipc = {
                factor: SMTProcessor(
                    SMTConfig(isa=isa, n_threads=8, resources=scaled(factor)),
                    PerfectMemory(),
                    traces,
                ).run().eipc
                for factor in (0.5, 1.0, 2.0)
            }
            gain_up = eipc[2.0] / eipc[1.0] - 1
            loss_down = 1 - eipc[0.5] / eipc[1.0]
            assert gain_up < 0.15, (isa, eipc)
            assert loss_down > gain_up - 0.02, (isa, eipc)

    def test_mmx_config_issue_width_2(self):
        assert SMTConfig(isa="mmx").issue_simd == 2

    def test_mom_config_issue_width_1(self):
        assert SMTConfig(isa="mom").issue_simd == 1
        # The MOM vector unit has two pipes, on a CMP core too: every
        # CMP serving pin was recorded with two.
        traces = build_workload_traces("mom", scale=2e-5)
        for config in (SMTConfig(isa="mom"), cmp_core_config("mom")):
            processor = SMTProcessor(config, PerfectMemory(), traces)
            assert processor.vector_unit.lanes == 2

    def test_fetch_width(self):
        assert SMTConfig().fetch_width == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SMTConfig(isa="sse9")
        with pytest.raises(ValueError):
            SMTConfig(n_threads=0)
