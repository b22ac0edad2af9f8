"""Unit tests for the SMT core building blocks."""

import pytest

from repro.core.branch import GsharePredictor
from repro.core.cmp import cmp_core_config
from repro.core.execute import VectorUnit
from repro.core.fetch import FetchPolicy, order_threads
from repro.core.params import Resources, SMTConfig, scaled_resources
from repro.core.queues import IssueQueue
from repro.core.rob import GraduationWindow
from repro.core.smt import SMTProcessor
from repro.isa.registers import RegisterClass
from repro.memory import PerfectMemory
from repro.workloads import build_workload_traces


class _Entry:
    """Minimal stand-in for an InFlight record."""

    def __init__(self, deps=0):
        self.deps = deps
        self.squashed = False
        self.state = 0


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


class TestIssueQueue:
    def test_ready_entry_pops(self):
        q = IssueQueue("int", 4)
        entry = _Entry(deps=0)
        q.insert(entry)
        assert q.pop_ready() is entry
        assert q.occupancy == 0

    def test_waiting_entry_not_ready(self):
        q = IssueQueue("int", 4)
        q.insert(_Entry(deps=2))
        assert q.pop_ready() is None
        assert q.occupancy == 1

    def test_wake_moves_to_ready(self):
        q = IssueQueue("int", 4)
        entry = _Entry(deps=1)
        q.insert(entry)
        entry.deps = 0
        q.wake(entry)
        assert q.pop_ready() is entry

    def test_overflow_rejected(self):
        q = IssueQueue("int", 1)
        q.insert(_Entry())
        with pytest.raises(RuntimeError):
            q.insert(_Entry())

    def test_fifo_order(self):
        q = IssueQueue("int", 4)
        first, second = _Entry(), _Entry()
        q.insert(first)
        q.insert(second)
        assert q.pop_ready() is first
        assert q.pop_ready() is second

    def test_squashed_entries_skipped(self):
        q = IssueQueue("int", 4)
        dead, live = _Entry(), _Entry()
        q.insert(dead)
        q.insert(live)
        dead.squashed = True
        assert q.pop_ready() is live


class TestGraduationWindow:
    def test_per_thread_fifo_order(self):
        w = GraduationWindow(8, 2)
        a, b = _Entry(), _Entry()
        w.insert(0, a)
        w.insert(0, b)
        assert w.head(0) is a
        assert w.retire_head(0) is a
        assert w.head(0) is b

    def test_shared_capacity(self):
        w = GraduationWindow(2, 2)
        w.insert(0, _Entry())
        w.insert(1, _Entry())
        assert not w.has_space
        with pytest.raises(RuntimeError):
            w.insert(0, _Entry())

    def test_flush_thread_squashes(self):
        w = GraduationWindow(8, 2)
        mine, theirs = _Entry(), _Entry()
        w.insert(0, mine)
        w.insert(1, theirs)
        assert w.flush_thread(0) == 1
        assert mine.squashed and not theirs.squashed
        assert w.is_empty(0) and not w.is_empty(1)
        assert w.occupancy == 1

    def test_thread_occupancy(self):
        w = GraduationWindow(8, 2)
        w.insert(1, _Entry())
        assert w.thread_occupancy(1) == 1
        assert w.thread_occupancy(0) == 0


class TestFetchPolicies:
    def setup_method(self):
        self.kwargs = dict(
            n_threads=4,
            rotation=0,
            inflight_insts=[5, 1, 9, 3],
            inflight_ops=[5, 30, 9, 3],
            fetched_vector_last=[True, False, True, False],
            simd_queue_empty=False,
        )

    def test_rr_rotates(self):
        order = order_threads(FetchPolicy.RR, 4, 2, [0] * 4, [0] * 4, [False] * 4, True)
        assert order == [2, 3, 0, 1]

    def test_icount_prefers_emptiest(self):
        order = order_threads(FetchPolicy.ICOUNT, **self.kwargs)
        assert order[0] == 1 and order[-1] == 2

    def test_ocount_counts_operations(self):
        # Thread 1 has few instructions but many operations (long streams).
        order = order_threads(FetchPolicy.OCOUNT, **self.kwargs)
        assert order[0] == 3 and order[-1] == 1

    def test_balance_prefers_nonvector_when_pipe_busy(self):
        order = order_threads(FetchPolicy.BALANCE, **self.kwargs)
        assert set(order[:2]) == {1, 3}

    def test_balance_prefers_vector_when_pipe_empty(self):
        kwargs = dict(self.kwargs, simd_queue_empty=True)
        order = order_threads(FetchPolicy.BALANCE, **kwargs)
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
