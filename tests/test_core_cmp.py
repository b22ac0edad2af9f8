"""Tests for the CMP extension (shared L2, private L1s, lockstep cores)."""

import pytest

from repro.core import SMTConfig, SMTProcessor
from repro.core.cmp import (
    CMP_CORE_RESOURCES,
    CMP_L1,
    CmpSystem,
    cmp_core_config,
    cmp_core_resources,
)
from repro.core.fetch import FetchPolicy
from repro.memory import ConventionalHierarchy
from repro.workloads import build_workload_traces

SCALE = 1.2e-5


@pytest.fixture(scope="module")
def traces():
    return build_workload_traces("mmx", scale=SCALE)


class TestCoreConfig:
    def test_core_is_narrow(self):
        config = cmp_core_config("mmx")
        assert config.n_threads == 1
        assert config.fetch_width == 4
        assert config.issue_int == 2
        assert config.dispatch_width == 4

    def test_private_l1_is_half_size(self):
        assert CMP_L1.size == 16 << 10
        assert CMP_L1.assoc == 1

    def test_mom_core_single_simd_issue(self):
        config = cmp_core_config("mom")
        assert config.issue_simd == 1


class TestCmpSystem:
    def test_completes_workload(self, traces):
        result = CmpSystem("mmx", 2, build_workload_traces("mmx", scale=SCALE)).run()
        assert result.program_completions == 8
        assert result.fetch_policy == "cmp"
        assert result.eipc > 0.5

    def test_cores_share_l2(self, traces):
        system = CmpSystem("mmx", 2, build_workload_traces("mmx", scale=SCALE))
        assert all(core.memory.l2 is system.l2 for core in system.cores)
        assert all(core.memory.dram is system.dram for core in system.cores)

    def test_cores_have_private_l1(self):
        system = CmpSystem("mmx", 2, build_workload_traces("mmx", scale=SCALE))
        l1s = {id(core.memory.l1) for core in system.cores}
        assert len(l1s) == 2

    def test_initial_programs_follow_workload_order(self):
        system = CmpSystem("mmx", 4, build_workload_traces("mmx", scale=SCALE))
        names = [core.threads[0].trace.name for core in system.cores]
        assert names == ["mpeg2enc", "gsmdec", "mpeg2dec", "gsmenc"]

    def test_more_cores_more_throughput(self):
        eipc = {}
        for cores in (2, 4):
            result = CmpSystem(
                "mmx", cores, build_workload_traces("mmx", scale=SCALE)
            ).run()
            eipc[cores] = result.eipc
        assert eipc[4] > 1.4 * eipc[2]

    def test_private_l1_hit_rate_beats_shared_smt(self):
        cmp_result = CmpSystem(
            "mmx", 4, build_workload_traces("mmx", scale=SCALE)
        ).run()
        smt_result = SMTProcessor(
            SMTConfig(isa="mmx", n_threads=4),
            ConventionalHierarchy(),
            build_workload_traces("mmx", scale=SCALE),
        ).run()
        # No inter-thread interference in private caches.
        assert cmp_result.memory.l1.hit_rate > smt_result.memory.l1.hit_rate

    def test_single_wide_core_beats_single_cmp_core(self):
        # The paper's Amdahl argument for SMT: with little TLP, one wide
        # core outruns a narrow CMP core.
        narrow = CmpSystem(
            "mmx", 1, build_workload_traces("mmx", scale=SCALE)
        ).run()
        wide = SMTProcessor(
            SMTConfig(isa="mmx", n_threads=1),
            ConventionalHierarchy(),
            build_workload_traces("mmx", scale=SCALE),
        ).run()
        assert wide.eipc > narrow.eipc

    def test_core_count_validated(self, traces):
        with pytest.raises(ValueError):
            CmpSystem("mmx", 0, traces)

    def test_frozen_system_fails_fast(self):
        # Every fetch misses for 10,000 cycles, so nothing ever commits.
        # The progress watchdog must raise long before max_cycles.
        system = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=2e-5),
            max_cycles=64 << 20,
        )
        for core in system.cores:
            core.memory.fetch = lambda thread, pc, now: now + 10_000
        with pytest.raises(RuntimeError, match="livelock"):
            system.run()
        assert system.now < 4 << 20

    def test_deterministic(self):
        results = [
            CmpSystem("mom", 2, build_workload_traces("mom", scale=SCALE)).run()
            for __ in range(2)
        ]
        assert results[0].cycles == results[1].cycles
        assert (
            results[0].committed_instructions
            == results[1].committed_instructions
        )


class TestResourceScaling:
    def test_single_context_is_the_base_core(self):
        assert cmp_core_resources(1) is CMP_CORE_RESOURCES

    def test_totals_grow_share_shrinks(self):
        def totals(resources):
            return (
                sum(resources.rename_regs.values()),
                sum(resources.queue_sizes.values()),
                resources.graduation_window,
            )

        previous = None
        for contexts in (1, 2, 4, 8):
            resources = cmp_core_resources(contexts)
            current = totals(resources)
            if previous is not None:
                # Totals grow monotonically with added contexts...
                assert all(c >= p for c, p in zip(current, previous))
                # ...but sublinearly: the per-context share shrinks.
                assert all(
                    c / contexts < p / (contexts // 2)
                    for c, p in zip(current, previous)
                )
            previous = current

    def test_widths_fixed_across_contexts(self):
        narrow = cmp_core_config("mmx", 1)
        wide = cmp_core_config("mmx", 4)
        assert wide.n_threads == 4
        for name in ("fetch_width", "dispatch_width", "issue_int",
                     "issue_simd", "commit_width"):
            assert getattr(wide, name) == getattr(narrow, name)
        assert (
            sum(wide.resources.rename_regs.values())
            > sum(narrow.resources.rename_regs.values())
        )

    def test_context_count_validated(self):
        with pytest.raises(ValueError):
            cmp_core_resources(0)


class TestLockstepEquivalence:
    def test_one_core_system_matches_standalone_core(self):
        """A 1-core, 1-context CmpSystem is exactly one CMP core: the
        lockstep wrapper must add zero cycles and zero commits."""
        system = CmpSystem(
            "mmx", 1, build_workload_traces("mmx", scale=SCALE),
            warmup_fraction=0.0,
        )
        system_result = system.run()
        standalone = SMTProcessor(
            cmp_core_config("mmx"),
            ConventionalHierarchy(n_ports=2, l1_config=CMP_L1),
            build_workload_traces("mmx", scale=SCALE),
            fetch_policy=FetchPolicy.RR,
            warmup_fraction=0.0,
        )
        standalone_result = standalone.run()
        assert system_result.cycles == standalone_result.cycles
        assert (
            system_result.committed_instructions
            == standalone_result.committed_instructions
        )
        assert system_result.eipc == pytest.approx(standalone_result.eipc)


class TestCmpSmt:
    def test_contexts_per_core_runs_and_reports_total_threads(self):
        result = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE),
            contexts_per_core=2,
        ).run()
        assert result.program_completions == 8
        assert result.n_threads == 4

    def test_cmp_smt_beats_pure_cmp_at_equal_cores(self):
        # Two extra contexts per core hide stalls the single-context
        # cores eat; with the same core count throughput must not drop.
        single = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE)
        ).run()
        smt = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE),
            contexts_per_core=2,
        ).run()
        assert smt.eipc > single.eipc

    def test_decoupled_memory_kind(self):
        system = CmpSystem(
            "mom", 2, build_workload_traces("mom", scale=SCALE),
            memory="decoupled",
        )
        assert all(core.memory.l2 is system.l2 for core in system.cores)
        assert all(core.memory.dram is system.dram for core in system.cores)
        assert system.run().program_completions == 8

    def test_memory_kind_validated(self):
        with pytest.raises(ValueError, match="memory kind"):
            CmpSystem(
                "mmx", 2, build_workload_traces("mmx", scale=SCALE),
                memory="perfect",
            )


class TestSanitizeAndObserve:
    def test_sanitized_run_is_clean(self):
        result = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE),
            sanitize=True,
        ).run()
        assert result.program_completions == 8

    def test_observe_metrics_merges_per_core_snapshots(self):
        system = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE),
            observe="metrics",
        )
        result = system.run()
        assert result.observability is not None
        snapshots = result.observability["cores"]
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert isinstance(snapshot["metrics"], dict)
            assert snapshot["metrics"], "metrics-mode snapshots carry data"

    def test_observe_stalls_gives_each_core_its_own_counter(self):
        from repro.obs.events import StallObserver

        system = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE),
            observe="stalls",
        )
        observers = [core.stall_observer for core in system.cores]
        assert all(type(obs) is StallObserver for obs in observers)
        assert observers[0] is not observers[1]
        assert all(core.observer is None for core in system.cores)
        snapshots = system.run().observability["cores"]
        assert [list(snap["metrics"]) for snap in snapshots] == [
            ["smt.stall"], ["smt.stall"]
        ]

    def test_unobserved_run_reports_no_observability(self):
        result = CmpSystem(
            "mmx", 2, build_workload_traces("mmx", scale=SCALE)
        ).run()
        assert result.observability is None

    def test_observer_instances_rejected(self):
        from repro.obs.events import PipelineObserver

        with pytest.raises(ValueError, match="observer"):
            CmpSystem(
                "mmx", 2, build_workload_traces("mmx", scale=SCALE),
                observe=PipelineObserver(),
            )
