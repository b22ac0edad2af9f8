"""Observability layer: observers never perturb runs, metrics/registry
semantics, Chrome-trace schema, ASCII round-trip, pipetrace tool CLI."""

import json
import os
import sys

import pytest

from repro.core import SMTConfig, SMTProcessor
from repro.core.rob import GraduationWindow
from repro.memory import ConventionalHierarchy, DecoupledHierarchy
from repro.obs import (
    Counter,
    Histogram,
    InstRecord,
    MetricsRegistry,
    PhaseProfiler,
    PipelineObserver,
    StallObserver,
    chrome_trace,
    parse_ascii,
    render_ascii,
    validate_chrome_trace,
    validate_records,
)
from repro.tracegen import build_program_trace

SCALE = 2e-5

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
sys.path.insert(0, SCRIPTS_DIR)

import pipetrace_tool  # noqa: E402


def run_observed(isa="mom", n_threads=8, memory_cls=ConventionalHierarchy,
                 observe=True, **kwargs):
    traces = [
        build_program_trace("jpegenc", isa, scale=SCALE),
        build_program_trace("gsmdec", isa, scale=SCALE),
    ]
    processor = SMTProcessor(
        SMTConfig(isa=isa, n_threads=n_threads, observe=observe),
        memory_cls(),
        traces,
        completions_target=1,
        warmup_fraction=0.0,
        **kwargs,
    )
    return processor, processor.run()


def result_key(result):
    return (
        result.cycles,
        result.committed_instructions,
        result.committed_equivalent,
        result.program_completions,
        result.mispredict_rate,
    )


# ----- observation never perturbs the simulation -----------------------------


@pytest.mark.parametrize(
    "isa,memory_cls",
    [("mom", ConventionalHierarchy), ("mom", DecoupledHierarchy),
     ("mmx", ConventionalHierarchy)],
)
def test_observed_run_is_bit_identical(isa, memory_cls):
    processor, observed = run_observed(isa, 8, memory_cls)
    assert processor.observer is not None
    plain_proc, plain = run_observed(isa, 8, memory_cls, observe=None)
    assert plain_proc.observer is None
    assert result_key(observed) == result_key(plain)
    assert observed.observability is not None
    assert plain.observability is None


def test_observer_off_by_default_and_unhooked():
    processor, __ = run_observed(observe=None)
    assert processor.observer is None
    assert processor.window.observer is None
    assert processor.memory.observer is None
    assert processor.memory.l1.mshr.observer is None
    assert processor.memory.l2.observer is None
    assert processor.memory.l1.write_buffer.observer is None


def test_metrics_only_mode_skips_event_lists():
    processor, result = run_observed(observe="metrics")
    observer = processor.observer
    assert observer.events is False
    assert observer.records == [] and observer.mem_events == []
    snap = result.observability
    assert snap["records"] == 0
    assert snap["metrics"]["smt.commit"]["instructions"]["total"] > 0
    # Per-thread stall attribution still collected.
    assert "smt.stall" in snap["metrics"]


@pytest.mark.parametrize("isa", ["mmx", "mom"])
def test_stall_counter_matches_the_metrics_observer(isa):
    processor, counted = run_observed(isa, 8, observe="stalls")
    observer = PipelineObserver(events=False)
    __, observed = run_observed(isa, 8, observe=observer)
    assert counted.cycles == observed.cycles
    assert counted.committed_instructions == observed.committed_instructions
    breakdown = processor.stall_observer.stall_breakdown()
    assert breakdown, "an 8T run at this scale must stall somewhere"
    assert breakdown == observer.stall_breakdown()


def test_stall_counter_attaches_no_event_hook():
    processor, result = run_observed(observe="stalls")
    assert type(processor.stall_observer) is StallObserver
    assert processor.observer is None
    assert processor.window.observer is None
    assert processor.memory.observer is None
    assert processor.memory.l2.observer is None
    assert processor.memory.l1.mshr.observer is None
    assert processor.memory.l1.write_buffer.observer is None
    assert list(result.observability["metrics"]) == ["smt.stall"]


def test_records_cover_the_run_and_validate():
    processor, result = run_observed()
    observer = processor.observer
    assert validate_records(observer.records) == len(observer.records)
    committed = [r for r in observer.records if r.committed]
    # MOM streams commit weighted; record count is per instruction.
    assert len(committed) <= result.committed_instructions
    assert observer.mem_events, "memory hooks emitted nothing"
    components = {event[1] for event in observer.mem_events}
    assert "l1" in components and "icache" in components
    snap = result.observability
    assert snap["records"] == len(observer.records)
    json.dumps(snap)  # snapshot must be JSON-safe


def test_decoupled_run_emits_stream_bypass_events():
    processor, __ = run_observed("mom", 8, DecoupledHierarchy)
    components = {event[1] for event in processor.observer.mem_events}
    assert "stream_bypass" in components
    metrics = processor.observer.registry.to_dict()
    assert "memory.stream_bypass" in metrics


def test_stall_breakdown_is_per_thread():
    processor, __ = run_observed()
    breakdown = processor.observer.stall_breakdown()
    assert breakdown, "an 8T run at this scale must stall somewhere"
    for cause, row in breakdown.items():
        assert row["total"] == sum(row["per_thread"])


def test_max_records_cap_keeps_metrics_counting():
    observer = PipelineObserver(max_records=10)
    processor, result = run_observed(observe=observer)
    assert len(observer.records) == 10
    assert observer.dropped_records > 0
    snap = result.observability
    assert snap["dropped_records"] == observer.dropped_records
    # Metrics keep counting past the record cap.
    assert snap["metrics"]["smt.fetch"]["instructions"]["total"] > 10
    validate_records(observer.records)


def test_squash_hook_marks_records():
    window = GraduationWindow(capacity=8, n_threads=1)
    observer = PipelineObserver()
    window.observer = observer

    class Entry:
        def __init__(self):
            self.squashed = False

    entries = [Entry(), Entry()]
    records = []
    for uid, entry in enumerate(entries):
        record = InstRecord(uid, 0, 0x100 + 4 * uid, 0, 1, 5 + uid, False)
        record.dispatch = 7 + uid
        observer._by_entry[id(entry)] = record
        records.append(record)
        window.insert(0, entry)
    window.flush_thread(0, now=12)
    assert all(r.squash == 12 for r in records)
    assert all(e.squashed for e in entries)
    assert not observer._by_entry
    validate_records(records)


# ----- metrics registry ------------------------------------------------------


def test_counter_per_thread_and_untyped():
    counter = Counter()
    counter.add(0)
    counter.add(3, 5)
    counter.add(-1, 2)
    assert counter.per_thread == [1, 0, 0, 5]
    assert counter.untyped == 2
    assert counter.total == 8
    assert counter.to_dict() == {
        "total": 8, "per_thread": [1, 0, 0, 5], "untyped": 2,
    }


def test_histogram_buckets_and_stats():
    histogram = Histogram(bounds=(1, 4, 16))
    for value in (0, 1, 2, 4, 5, 100):
        histogram.observe(value, thread=0)
    assert histogram.buckets == [2, 2, 1, 1]
    assert histogram.count == 6
    assert histogram.min == 0 and histogram.max == 100
    assert histogram.mean == pytest.approx(112 / 6)
    payload = histogram.to_dict()
    assert payload["bounds"] == [1, 4, 16]
    assert payload["per_thread"] == [6]


def test_registry_caches_instruments_and_serializes():
    registry = MetricsRegistry()
    counter = registry.counter("smt.fetch", "instructions")
    assert registry.counter("smt.fetch", "instructions") is counter
    histogram = registry.histogram("memory.l1", "latency")
    assert registry.histogram("memory.l1", "latency") is histogram
    counter.add(0)
    histogram.observe(3, 1)
    tree = registry.to_dict()
    assert registry.components() == ["memory.l1", "smt.fetch"]
    assert "buckets" in tree["memory.l1"]["latency"]
    assert "buckets" not in tree["smt.fetch"]["instructions"]


def test_phase_profiler_nests_and_accumulates():
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: next(ticks))
    with profiler.phase("sweep"):
        with profiler.phase("point"):
            pass
        with profiler.phase("point"):
            pass
    tree = profiler.to_dict()
    sweep = tree["phases"]["sweep"]
    assert sweep["count"] == 1
    assert sweep["phases"]["point"]["count"] == 2
    assert sweep["seconds"] >= sweep["phases"]["point"]["seconds"]


# ----- chrome trace ----------------------------------------------------------


def test_chrome_trace_schema_validates():
    processor, __ = run_observed()
    observer = processor.observer
    document = chrome_trace(observer.records[:300], observer.mem_events[:100])
    count = validate_chrome_trace(document)
    assert count > 300
    json.dumps(document)
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases == {"X", "i", "M"}


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("traceEvents"), "traceEvents"),
        (lambda d: d["traceEvents"].append({"ph": "X", "name": "x"}),
         "missing"),
        (lambda d: d["traceEvents"].append(
            {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}),
         "negative"),
        (lambda d: d["traceEvents"].append(
            {"name": "x", "ph": "i", "ts": 0, "s": "z", "pid": 0, "tid": 0}),
         "scope"),
        (lambda d: d["traceEvents"].append(
            {"name": "x", "ph": "Q", "ts": 0, "pid": 0, "tid": 0}),
         "phase"),
    ],
)
def test_chrome_trace_schema_rejects_bad_events(mutate, message):
    document = chrome_trace([])
    mutate(document)
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(document)


# ----- ascii round-trip ------------------------------------------------------


def record_fields(record):
    return (
        record.uid, record.thread, record.pc, record.op,
        record.stream_length, record.mispredicted, record.fetch,
        record.dispatch, record.issue, record.complete, record.commit,
        record.squash,
    )


def test_ascii_round_trips_mom_8t_run():
    # Acceptance criterion: the ASCII renderer round-trips a MOM/8T run.
    processor, __ = run_observed("mom", 8, ConventionalHierarchy)
    records = processor.observer.records
    text = render_ascii(records, max_width=1 << 20)
    parsed = parse_ascii(text)
    assert len(parsed) == len(records)
    for original, restored in zip(records, parsed):
        assert record_fields(original) == record_fields(restored)


def test_ascii_round_trips_partial_and_squashed_records():
    full = InstRecord(0, 0, 0x40, 3, 8, 10, True)
    full.dispatch, full.issue, full.complete, full.commit = 11, 13, 20, 20
    inflight = InstRecord(1, 2, 0x44, 5, 1, 12, False)
    inflight.dispatch = 14
    squashed = InstRecord(2, 1, 0x48, 7, 1, 13, False)
    squashed.dispatch, squashed.issue = 14, 15
    squashed.squash = 16
    records = [full, inflight, squashed]
    parsed = parse_ascii(render_ascii(records))
    for original, restored in zip(records, parsed):
        assert record_fields(original) == record_fields(restored)
    # The only legal stage collision: complete == commit renders as 'C'.
    assert "X" not in render_ascii([full]).splitlines()[1]


def test_ascii_rejects_garbage():
    with pytest.raises(ValueError, match="unparseable"):
        parse_ascii("# base=0\nnot a row\n")
    record = InstRecord(0, 0, 0, 0, 1, 0, False)
    record.commit = 1 << 13
    with pytest.raises(ValueError, match="max_width"):
        render_ascii([record], max_width=16)


# ----- pipetrace tool CLI ----------------------------------------------------


def test_pipetrace_tool_chrome_output_validates(tmp_path):
    out = tmp_path / "trace.json"
    code = pipetrace_tool.main([
        "run", "--isa", "mom", "--threads", "8", "--scale", "2e-5",
        "--first", "40", "--output", str(out),
    ])
    assert code == 0
    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) > 0
    assert pipetrace_tool.main(["check", str(out)]) == 0


def test_pipetrace_tool_check_rejects_corrupt(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    assert pipetrace_tool.main(["check", str(bad)]) == 1


def test_pipetrace_tool_ascii_round_trips(tmp_path, capsys):
    out = tmp_path / "pipe.txt"
    code = pipetrace_tool.main([
        "run", "--isa", "mom", "--threads", "8", "--scale", "2e-5",
        "--first", "25", "--format", "ascii", "--output", str(out),
    ])
    assert code == 0
    parsed = parse_ascii(out.read_text())
    assert len(parsed) == 25


def test_config_rejects_bogus_observe():
    with pytest.raises(ValueError, match="observe"):
        SMTConfig(observe=42)
