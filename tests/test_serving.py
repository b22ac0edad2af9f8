"""Serving-scenario tests: traffic, admission, simulation, metering.

Property tests (hypothesis) pin the deterministic contracts — schedules
are seed-stable and sorted, admission never exceeds the machine's slot
count and conserves every offered stream, trace rebasing moves only code
addresses — and the simulator tests run real open-loop scenarios at
smoke scale end to end: conservation, determinism, policy distinctness,
and per-stream stall attribution.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import percentile
from repro.serving.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    Slot,
)
from repro.serving.simulator import (
    ServingSimulator,
    build_serving_machine,
    derive_interarrival,
)
from repro.serving.metering import meter_result
from repro.tracegen.program import build_program_trace
from repro.workloads.mediabench import build_stream_trace_variants
from repro.workloads.streams import (
    CODE_BASE_STRIDE,
    SERVING_MIXES,
    STREAM_DEADLINE_SLACK,
    StreamDescriptor,
    generate_stream_schedule,
    rebase_trace,
)

SCALE = 1.2e-5
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


# ----- arrival schedules ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_streams=st.integers(min_value=1, max_value=40),
    mean=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**31),
    mix=st.sampled_from(sorted(SERVING_MIXES)),
)
def test_schedule_is_sorted_valid_and_seed_stable(n_streams, mean, seed, mix):
    first = generate_stream_schedule(n_streams, mean, seed=seed, mix=mix)
    second = generate_stream_schedule(n_streams, mean, seed=seed, mix=mix)
    assert first == second, "equal arguments must yield equal schedules"
    assert [s.stream_id for s in first] == list(range(n_streams))
    mix_programs = {name for name, __ in SERVING_MIXES[mix]}
    previous = 0
    for stream in first:
        assert stream.arrival > previous, "arrivals strictly increase"
        previous = stream.arrival
        assert stream.program in mix_programs
        assert stream.deadline_slack == STREAM_DEADLINE_SLACK[stream.program]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    slack_scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_slack_scale_multiplies_deadline_slack(seed, slack_scale):
    schedule = generate_stream_schedule(
        8, 100, seed=seed, slack_scale=slack_scale
    )
    for stream in schedule:
        base = STREAM_DEADLINE_SLACK[stream.program]
        assert stream.deadline_slack == pytest.approx(base * slack_scale)
        assert stream.deadline(1000) >= stream.arrival + 1


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_stream_schedule(0, 100)
    with pytest.raises(ValueError):
        generate_stream_schedule(4, 0)
    with pytest.raises(ValueError):
        generate_stream_schedule(4, 100, mix="nope")
    with pytest.raises(ValueError):
        generate_stream_schedule(4, 100, slack_scale=0.0)


# ----- trace variants and rebasing -------------------------------------------


def test_stream_variants_mirror_workload_seeds():
    variants = build_stream_trace_variants(
        "mmx", {"gsmdec": 2}, scale=SCALE, seed=0
    )
    assert len(variants["gsmdec"]) == 2
    first, second = variants["gsmdec"]
    # Distinct per-instance seeds: different executions of one program.
    assert len(first) != len(second) or any(
        a.pc != b.pc or a.op is not b.op
        for a, b in zip(first.instructions, second.instructions)
    )
    for trace in (first, second):
        assert trace.name == "gsmdec"
        assert trace.isa == "mmx"


def test_stream_variants_reject_unknown_names():
    with pytest.raises(ValueError):
        build_stream_trace_variants("mmx", {"nope": 1}, scale=SCALE)
    with pytest.raises(ValueError):
        build_stream_trace_variants("vliw", {"gsmdec": 1}, scale=SCALE)


def test_rebase_trace_moves_code_addresses_only():
    trace = build_stream_trace_variants(
        "mom", {"jpegdec": 1}, scale=SCALE
    )["jpegdec"][0]
    moved = rebase_trace(trace, CODE_BASE_STRIDE * 3)
    assert len(moved) == len(trace)
    assert moved.expanded_length == trace.expanded_length
    for before, after in zip(trace.instructions, moved.instructions):
        assert after.pc == before.pc + CODE_BASE_STRIDE * 3
        assert after.op is before.op
        assert after.mem_addr == before.mem_addr
        assert after.stream_length == before.stream_length
        if before.is_branch:
            assert after.target == before.target + CODE_BASE_STRIDE * 3
        else:
            assert after.target == before.target
        # Fetch groups break at the same instructions either way.
        assert after.pc >> 5 == (before.pc >> 5) + CODE_BASE_STRIDE * 3 // 32


def test_rebase_trace_zero_offset_is_identity():
    trace = build_stream_trace_variants(
        "mmx", {"gsmenc": 1}, scale=SCALE
    )["gsmenc"][0]
    assert rebase_trace(trace, 0) is trace
    with pytest.raises(ValueError):
        rebase_trace(trace, 16)  # not a line multiple
    with pytest.raises(ValueError):
        rebase_trace(trace, -32)


# ----- admission control ------------------------------------------------------


def _stream(stream_id, program="gsmdec", arrival=None):
    return StreamDescriptor(
        stream_id=stream_id,
        program=program,
        arrival=arrival if arrival is not None else stream_id + 1,
        deadline_slack=STREAM_DEADLINE_SLACK[program],
    )


@settings(max_examples=40, deadline=None)
@given(
    n_cores=st.integers(min_value=1, max_value=4),
    contexts=st.integers(min_value=1, max_value=4),
    policy=st.sampled_from(ADMISSION_POLICIES),
    queue_limit=st.integers(min_value=0, max_value=4),
    events=st.lists(st.integers(min_value=0, max_value=2), max_size=40),
)
def test_admission_capacity_and_conservation(
    n_cores, contexts, policy, queue_limit, events
):
    """Random offer/release interleavings: busy never exceeds the slot
    count, and every offered stream is admitted, queued or rejected —
    exactly one of the three."""
    admission = AdmissionController(
        n_cores, contexts, policy=policy, queue_limit=queue_limit
    )
    programs = sorted(STREAM_DEADLINE_SLACK)
    active: list[Slot] = []
    next_id = 0
    for event in events:
        if event < 2:  # offer (twice as likely as release)
            stream = _stream(next_id, programs[next_id % len(programs)])
            next_id += 1
            outcome, slot = admission.offer(stream)
            assert outcome in ("admitted", "queued", "rejected")
            if outcome == "admitted":
                assert slot is not None
                assert slot not in active, "placed on a busy slot"
                active.append(slot)
            else:
                assert slot is None
        elif active:
            promoted = admission.release(active.pop(0))
            if promoted is not None:
                stream, slot = promoted
                assert slot not in active
                active.append(slot)
        assert admission.busy == len(active)
        assert admission.busy <= n_cores * contexts
        assert len(admission.queue) <= queue_limit
        # Conservation: the three outcomes partition the offered count.
        in_queue = len(admission.queue)
        assert (
            admission.admitted + in_queue + admission.rejected
            == admission.offered
        )
        assert admission.queued >= in_queue  # queued counts entries ever


def test_rr_rotates_and_least_balances():
    rr = AdmissionController(2, 2, policy="rr")
    placements = [rr.offer(_stream(i))[1] for i in range(4)]
    assert placements == [Slot(0, 0), Slot(0, 1), Slot(1, 0), Slot(1, 1)]

    least = AdmissionController(2, 2, policy="least")
    assert least.offer(_stream(0))[1] == Slot(0, 0)
    # Core 0 now has one busy context: least-loaded goes to core 1.
    assert least.offer(_stream(1))[1] == Slot(1, 0)
    assert least.offer(_stream(2))[1] == Slot(0, 1)


def test_affinity_prefers_warm_slot():
    admission = AdmissionController(2, 2, policy="affinity")
    admission.offer(_stream(0, "mpeg2dec"))          # -> (0, 0), stays busy
    __, other = admission.offer(_stream(1, "gsmenc"))   # -> (1, 0)
    __, warm = admission.offer(_stream(2, "mpeg2dec"))  # -> (0, 1)
    assert warm == Slot(0, 1)
    admission.release(warm)
    admission.release(other)
    # Least-loaded would now pick idle core 1; affinity takes the free
    # slot that last ran the same program instead.
    __, placed = admission.offer(_stream(3, "mpeg2dec"))
    assert placed == warm, "free slot that last ran the program wins"


def test_release_requires_busy_slot_and_promotes_fifo():
    admission = AdmissionController(1, 1, policy="rr", queue_limit=2)
    with pytest.raises(ValueError):
        admission.release(Slot(0, 0))
    __, slot = admission.offer(_stream(0))
    assert admission.offer(_stream(1))[0] == "queued"
    assert admission.offer(_stream(2))[0] == "queued"
    assert admission.offer(_stream(3))[0] == "rejected"
    stream, placed = admission.release(slot)
    assert stream.stream_id == 1, "queue promotes in FIFO order"
    assert placed == slot


# ----- percentile (metering dependency) --------------------------------------


def test_percentile_nearest_rank():
    samples = [float(v) for v in range(1, 11)]
    assert percentile(samples, 0.50) == 5.0
    assert percentile(samples, 0.95) == 10.0
    assert percentile(samples, 1.0) == 10.0
    assert percentile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ----- the simulator end to end ----------------------------------------------


def _run_scenario(
    isa="mmx",
    arch="cmp",
    cores=2,
    contexts=2,
    policy="rr",
    n_streams=8,
    memory="conventional",
    seed=0,
    load=0.85,
    observe="stalls",
):
    schedule_seed = seed
    variants_needed: dict[str, int] = {}
    # Palette for the load heuristic: variant 0 of every program.
    palette = {
        name: traces[0]
        for name, traces in build_stream_trace_variants(
            isa, {name: 1 for name in sorted(STREAM_DEADLINE_SLACK)},
            scale=SCALE, seed=seed,
        ).items()
    }
    interarrival = derive_interarrival(palette, "mixed", load, cores * contexts)
    schedule = generate_stream_schedule(
        n_streams, interarrival, seed=schedule_seed
    )
    for stream in schedule:
        variants_needed[stream.program] = (
            variants_needed.get(stream.program, 0) + 1
        )
    variants = build_stream_trace_variants(
        isa, variants_needed, scale=SCALE, seed=seed
    )
    seen: dict[str, int] = {}
    traces_by_stream = {}
    for stream in schedule:
        index = seen.get(stream.program, 0)
        seen[stream.program] = index + 1
        traces_by_stream[stream.stream_id] = rebase_trace(
            variants[stream.program][index],
            stream.stream_id * CODE_BASE_STRIDE,
        )
    machine_traces = list(traces_by_stream.values())
    machine, scheduler = build_serving_machine(
        arch, isa, cores, contexts, memory, machine_traces, observe=observe
    )
    admission = AdmissionController(cores, contexts, policy=policy)
    simulator = ServingSimulator(
        machine, scheduler, admission, schedule, traces_by_stream
    )
    return meter_result(simulator.run(), machine, admission), schedule


@pytest.fixture(scope="module")
def metered():
    return _run_scenario()[0]


def test_simulator_conserves_streams(metered):
    summary = metered["summary"]
    assert summary["completed"] + summary["rejected"] == summary["offered"]
    assert summary["offered"] == 8
    per_program_total = sum(
        entry["completed"] + entry["rejected"]
        for entry in metered["per_program"].values()
    )
    assert per_program_total == summary["offered"]


def test_stream_records_are_internally_consistent(metered):
    for record in metered["streams"]:
        assert record["latency"] == record["completed"] - record["arrival"]
        assert record["queue_wait"] == record["admitted"] - record["arrival"]
        assert record["service"] == record["latency"] - record["queue_wait"]
        assert record["queue_wait"] >= 0
        assert record["service"] > 0
        assert record["committed"] > 0
        assert record["missed"] == (record["completed"] > record["deadline"])


def test_per_stream_stall_attribution(metered):
    from repro.obs.events import STALL_CAUSES

    assert any(record["stalls"] for record in metered["streams"])
    for record in metered["streams"]:
        for cause, count in record["stalls"].items():
            assert cause in STALL_CAUSES
            assert count > 0, "zero entries are elided"


def test_simulator_is_deterministic():
    first, __ = _run_scenario(isa="mom", policy="least")
    second, __ = _run_scenario(isa="mom", policy="least")
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_policies_place_streams_differently():
    by_policy = {
        policy: _run_scenario(policy=policy, n_streams=12)[0]
        for policy in ADMISSION_POLICIES
    }
    placements = {
        policy: [
            (record["core"], record["context"])
            for record in result["streams"]
        ]
        for policy, result in by_policy.items()
    }
    assert len({json.dumps(p) for p in placements.values()}) >= 2, (
        "the three policies must not collapse to identical placements"
    )


def test_smt_and_cmp_shapes_both_serve():
    smt, __ = _run_scenario(arch="smt", cores=1, contexts=4)
    cmp_result, __ = _run_scenario(arch="cmp", cores=2, contexts=2)
    for result in (smt, cmp_result):
        assert result["summary"]["completed"] == 8
        assert result["summary"]["eipc"] > 0
    assert smt["memory"]["icache_hit_rate"] > 0.5
    assert cmp_result["admission"]["admitted"] == 8


@pytest.mark.parametrize("isa", ["mmx", "mom"])
@pytest.mark.parametrize("memory", ["conventional", "decoupled"])
@pytest.mark.parametrize("arch,cores,contexts", [("smt", 1, 4), ("cmp", 2, 2)])
def test_stall_counter_meters_like_the_metrics_observer(
    arch, cores, contexts, memory, isa
):
    # Serving observes with a bare stall counter; its stream records,
    # per-stream stalls included, must match the full metrics observer's.
    shape = dict(isa=isa, arch=arch, cores=cores, contexts=contexts,
                 memory=memory)
    stalls, __ = _run_scenario(observe="stalls", **shape)
    metrics, __ = _run_scenario(observe="metrics", **shape)
    assert any(record["stalls"] for record in stalls["streams"])
    assert json.dumps(stalls) == json.dumps(metrics)


def test_observe_none_strips_stall_attribution():
    result, __ = _run_scenario(observe=None, n_streams=4)
    assert all(record["stalls"] == {} for record in result["streams"])


# ----- the progress watchdog -------------------------------------------------

#: Cycles per watchdog block (``repro.core.smt._WATCHDOG_CYCLES``).
WATCHDOG_BLOCK = 1 << 20


def _one_stream(arch, isa, arrival):
    trace = build_program_trace("gsmdec", isa, scale=SCALE)
    machine, scheduler = build_serving_machine(
        arch, isa, 1, 1, "conventional", [trace]
    )
    stream = StreamDescriptor(
        0, "gsmdec", arrival, STREAM_DEADLINE_SLACK["gsmdec"]
    )
    simulator = ServingSimulator(
        machine, scheduler, AdmissionController(1, 1), [stream], {0: trace}
    )
    return machine, simulator


@pytest.mark.parametrize("arch,isa", [("smt", "mmx"), ("cmp", "mom")])
def test_stream_arriving_just_before_a_watchdog_block_completes(arch, isa):
    # The watchdog samples its progress mark on the first cycle of each
    # block.  A stream arriving on an idle machine 3 cycles before a
    # block boundary is sampled twice a few cycles apart, while its
    # first fetch still waits on the I-cache: no livelock.
    __, simulator = _one_stream(arch, isa, WATCHDOG_BLOCK - 3)
    result = simulator.run()
    assert [record["stream"] for record in result["streams"]] == [0]
    assert result["streams"][0]["committed"] > 0


@pytest.mark.parametrize("arch,isa", [("smt", "mmx"), ("cmp", "mom")])
def test_frozen_serving_machine_fails_fast(arch, isa):
    # Every fetch misses for 10,000 cycles, so the stream never makes
    # progress; the watchdog must raise long before max_cycles.
    machine, simulator = _one_stream(arch, isa, 1)
    for core in machine.cores:
        core.memory.fetch = lambda thread, pc, now: now + 10_000
    with pytest.raises(RuntimeError, match="no progress between cycles"):
        simulator.run()
    assert machine.now < 4 * WATCHDOG_BLOCK


_HASHSEED_CHILD = """
import hashlib, json
from repro.analysis.serving import ServingRequest, execute_serving_request
result = execute_serving_request(ServingRequest(
    isa="mom", arch="cmp", cores=2, contexts=2, policy="least",
    n_streams=6, scale=1.2e-5,
))
blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
print(hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("hashseed", ["0", "31337"])
def test_serving_results_are_hashseed_independent(hashseed, tmp_path):
    # Different PYTHONHASHSEED values randomize set/dict iteration
    # order; a serving outcome that depends on it diverges here.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_CHILD],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.strip()
    reference_path = tmp_path.parent / "serving-hashseed-reference.txt"
    try:
        with open(reference_path, "x") as handle:
            handle.write(digest)
    except FileExistsError:
        with open(reference_path) as handle:
            assert digest == handle.read(), (
                f"serving hash changed under PYTHONHASHSEED={hashseed}: "
                "a set/dict iteration order is leaking into the scenario"
            )
