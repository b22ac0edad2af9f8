"""Tests for the multiprogramming scheduler and workload registry."""

import gc

import pytest

import repro.workloads.mediabench as mediabench
from repro.workloads import (
    MEDIABENCH_PROGRAMS,
    MultiprogramScheduler,
    WORKLOAD_ORDER,
    build_stream_trace_variants,
    build_workload_traces,
)
from repro.workloads.mediabench import workload_total_minsts

SCALE = 1.2e-5


@pytest.fixture(scope="module")
def traces():
    return build_workload_traces("mmx", scale=SCALE)


class TestRegistry:
    def test_seven_programs(self):
        assert len(MEDIABENCH_PROGRAMS) == 7

    def test_instances_sum_to_eight(self):
        assert sum(p.instances for p in MEDIABENCH_PROGRAMS.values()) == 8

    def test_profiles_cover_mpeg4(self):
        profiles = {p.profile for p in MEDIABENCH_PROGRAMS.values()}
        assert any("video" in p for p in profiles)
        assert any("audio" in p for p in profiles)
        assert any("still image" in p for p in profiles)

    def test_workload_totals_match_table3(self):
        assert workload_total_minsts("mmx") == pytest.approx(1429, abs=10)
        assert workload_total_minsts("mom") == pytest.approx(1087, abs=10)

    def test_build_workload_returns_eight_traces(self, traces):
        assert len(traces) == 8
        assert [t.name for t in traces] == list(WORKLOAD_ORDER)

    def test_duplicate_mpeg2dec_instances_differ(self, traces):
        decs = [t for t in traces if t.name == "mpeg2dec"]
        assert len(decs) == 2
        addr_a = [i.mem_addr for i in decs[0].instructions if i.is_mem][:50]
        addr_b = [i.mem_addr for i in decs[1].instructions if i.is_mem][:50]
        assert addr_a != addr_b

    def test_bad_isa_rejected(self):
        with pytest.raises(ValueError):
            build_workload_traces("sse2")


#: The two whole-workload builders, each at a scale of milliseconds.
WORKLOAD_BUILDS = {
    "workload": lambda: build_workload_traces("mmx", scale=SCALE),
    "variants": lambda: build_stream_trace_variants(
        "mom", {"gsmdec": 2, "mesa": 1}, scale=SCALE
    ),
}


@pytest.fixture
def collections():
    """Generations of the collections that start during the test.

    The caller's collector state is restored afterwards.
    """
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled = gc.isenabled()
    gc.callbacks.append(record)
    yield started
    gc.callbacks.remove(record)
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("build", WORKLOAD_BUILDS.values(), ids=list(WORKLOAD_BUILDS))
class TestCollectorPause:
    def test_enabled_collector_returns_after_one_full_collection(
        self, build, collections
    ):
        gc.enable()
        build()
        seen = list(collections)
        assert gc.isenabled()
        # None during the build: the only one is the final full pass.
        assert seen == [2]

    def test_disabled_collector_stays_off_and_never_runs(self, build, collections):
        gc.disable()
        build()
        assert not gc.isenabled()
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_survives_a_raising_build(
        self, build, enabled, collections, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("generator bug")

        monkeypatch.setattr(mediabench, "build_program_trace", broken)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(RuntimeError, match="generator bug"):
            build()
        assert gc.isenabled() is enabled
        if not enabled:
            assert collections == []


class TestScheduler:
    def test_initial_assignments_follow_order(self, traces):
        sched = MultiprogramScheduler(traces, n_threads=3)
        slots = sched.initial_assignments()
        assert [s.trace.name for s in slots] == list(WORKLOAD_ORDER[:3])

    def test_rotation_wraps_list(self, traces):
        sched = MultiprogramScheduler(traces, n_threads=8, completions_target=10)
        sched.initial_assignments()
        first_refill = sched.on_completion()
        assert first_refill.trace.name == WORKLOAD_ORDER[0]

    def test_completion_target_ends_run(self, traces):
        sched = MultiprogramScheduler(traces, n_threads=1, completions_target=2)
        sched.initial_assignments()
        assert sched.on_completion() is not None
        assert sched.on_completion() is None
        assert sched.done
        assert sched.completions == 2

    def test_single_thread_runs_programs_sequentially(self, traces):
        sched = MultiprogramScheduler(traces, n_threads=1, completions_target=8)
        slots = sched.initial_assignments()
        names = [slots[0].trace.name]
        for __ in range(7):
            replacement = sched.on_completion()
            names.append(replacement.trace.name)
        assert names == list(WORKLOAD_ORDER)

    def test_validation(self, traces):
        with pytest.raises(ValueError):
            MultiprogramScheduler(traces, n_threads=0)
        with pytest.raises(ValueError):
            MultiprogramScheduler([], n_threads=1)
