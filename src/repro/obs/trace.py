"""Trace exporters: Chrome-trace JSON and a Konata-style ASCII pipeline.

Both operate on the :class:`repro.obs.events.InstRecord` stream captured
by a :class:`~repro.obs.events.PipelineObserver`; neither imports the
simulator, so ``scripts/pipetrace_tool.py`` can post-process a run
without touching core state.

Chrome trace format
-------------------
:func:`chrome_trace` emits the "JSON Object Format" of the Trace Event
specification (loadable in ``chrome://tracing`` and Perfetto): one
complete-duration event (``"ph": "X"``) per occupied pipeline interval
of each instruction, grouped into one process per hardware context
(``pid`` = thread) with one track per instruction (``tid`` = record
uid), plus instant events (``"ph": "i"``) for memory events and
metadata events (``"ph": "M"``) naming the tracks.  Timestamps are in
microseconds per the spec; we map one core cycle to one microsecond.

ASCII pipeline
--------------
:func:`render_ascii` draws one row per instruction::

    # base=1071
    #12 t3 pc=4198 op=17 sl=8 mp=0 | F.D.I..XC

with ``F``/``D``/``I``/``X``/``C`` marking the fetch, dispatch, issue,
complete and commit cycles.  The fused pipeline step can complete and
commit an instruction in the same cycle — the only possible stage
collision — in which case only ``C`` is drawn and
:func:`parse_ascii` restores ``complete == commit`` (a commit without a
completion is impossible), so the renderer and parser form an exact
round-trip over every legal record stream.
"""

from __future__ import annotations

import re

from repro.obs.events import InstRecord

#: Intervals drawn/exported between consecutive stage timestamps.
_SPANS = (
    ("decode", "fetch", "dispatch"),
    ("queue", "dispatch", "issue"),
    ("execute", "issue", "complete"),
    ("window", "complete", "commit"),
)


# ------------------------------------------------------------- chrome trace


def chrome_trace(
    records: list[InstRecord],
    mem_events: list[tuple] = (),
    label: str = "repro",
) -> dict:
    """Build a Chrome-trace ("JSON Object Format") document."""
    events: list[dict] = []
    threads = set()
    for record in records:
        threads.add(record.thread)
        track = {"pid": record.thread, "tid": record.uid}
        args = {
            "uid": record.uid,
            "pc": record.pc,
            "op": record.op,
            "stream_length": record.stream_length,
            "mispredicted": record.mispredicted,
        }
        events.append({
            "name": "thread_name", "ph": "M",
            "pid": record.thread, "tid": record.uid,
            "args": {"name": f"inst {record.uid}"},
        })
        for name, start_stage, end_stage in _SPANS:
            start = getattr(record, start_stage)
            end = getattr(record, end_stage)
            if start is None or end is None:
                continue
            events.append({
                "name": name, "cat": "pipeline", "ph": "X",
                "ts": start, "dur": max(end - start, 0),
                "args": args, **track,
            })
    for now, component, kind, thread, latency, hit in mem_events:
        events.append({
            "name": f"{component}:{kind}", "cat": "memory", "ph": "i",
            "ts": now, "s": "g", "pid": -1, "tid": hash(component) & 0xFFFF,
            "args": {"component": component, "kind": kind,
                     "thread": thread, "latency": latency, "hit": hit},
        })
    for thread in sorted(threads):
        events.append({
            "name": "process_name", "ph": "M", "pid": thread, "tid": 0,
            "args": {"name": f"hw context {thread}"},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "pipetrace_tool", "label": label},
    }


#: Required keys per event phase, per the Trace Event format spec.
_PHASE_REQUIRED = {
    "X": ("name", "ph", "ts", "dur", "pid", "tid"),
    "i": ("name", "ph", "ts", "s", "pid", "tid"),
    "M": ("name", "ph", "pid", "args"),
}


def validate_chrome_trace(document: dict) -> int:
    """Validate a document against the trace-event schema subset we emit.

    Returns the number of events checked; raises ``ValueError`` with the
    offending event on the first violation.  Used by the pipetrace tests
    and by ``pipetrace_tool.py --check``.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a JSON-object-format trace: missing traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"event is not an object: {event!r}")
        phase = event.get("ph")
        if phase not in _PHASE_REQUIRED:
            raise ValueError(f"unknown event phase {phase!r}: {event!r}")
        for key in _PHASE_REQUIRED[phase]:
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event!r}")
        if phase == "X":
            if not isinstance(event["ts"], int) or not isinstance(
                event["dur"], int
            ):
                raise ValueError(f"ts/dur must be integers: {event!r}")
            if event["dur"] < 0:
                raise ValueError(f"negative duration: {event!r}")
        if phase == "i" and event["s"] not in ("g", "p", "t"):
            raise ValueError(f"bad instant scope: {event!r}")
    return len(events)


# ---------------------------------------------------------- ascii pipeline

_ROW = re.compile(
    r"^#(?P<uid>\d+) t(?P<thread>\d+) pc=(?P<pc>\d+) op=(?P<op>\d+) "
    r"sl=(?P<sl>\d+) mp=(?P<mp>[01]) \| (?P<timeline>.*)$"
)

_STAGE_LETTER = (
    ("fetch", "F"),
    ("dispatch", "D"),
    ("issue", "I"),
    ("complete", "X"),
    ("commit", "C"),
)


def render_ascii(records: list[InstRecord], max_width: int = 4096) -> str:
    """Render records as a Konata-style ASCII pipeline diagram."""
    if not records:
        return "# base=0\n"
    base = min(record.fetch for record in records)
    lines = [f"# base={base}"]
    for record in records:
        cells: dict[int, str] = {}
        for stage, letter in _STAGE_LETTER:
            cycle = getattr(record, stage)
            if cycle is None:
                continue
            # Complete/commit in the same fused step is the only legal
            # collision; commit wins and the parser restores the pair.
            cells[cycle - base] = letter
        if not cells:
            continue
        first, last = min(cells), max(cells)
        if last >= max_width:
            raise ValueError(
                f"record #{record.uid} spans past column {max_width}; "
                "raise max_width or trace a narrower window"
            )
        timeline = "".join(
            cells.get(col, "." if first < col < last else " ")
            for col in range(last + 1)
        )
        lines.append(
            f"#{record.uid} t{record.thread} pc={record.pc} "
            f"op={record.op} sl={record.stream_length} "
            f"mp={int(record.mispredicted)} | {timeline}"
        )
    return "\n".join(lines) + "\n"


def parse_ascii(text: str) -> list[InstRecord]:
    """Parse :func:`render_ascii` output back into records."""
    base = 0
    records: list[InstRecord] = []
    for line in text.splitlines():
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# base="):
            base = int(line[len("# base="):])
            continue
        match = _ROW.match(line)
        if match is None:
            raise ValueError(f"unparseable pipeline row: {line!r}")
        stages: dict[str, int] = {}
        for column, letter in enumerate(match["timeline"]):
            if letter in (" ", "."):
                continue
            for stage, stage_letter in _STAGE_LETTER:
                if letter == stage_letter:
                    stages[stage] = base + column
                    break
            else:
                raise ValueError(f"unknown stage letter {letter!r}: {line!r}")
        if "fetch" not in stages:
            raise ValueError(f"row without a fetch cycle: {line!r}")
        record = InstRecord(
            uid=int(match["uid"]),
            thread=int(match["thread"]),
            pc=int(match["pc"]),
            op=int(match["op"]),
            stream_length=int(match["sl"]),
            fetch=stages["fetch"],
            mispredicted=match["mp"] == "1",
        )
        record.dispatch = stages.get("dispatch")
        record.issue = stages.get("issue")
        record.complete = stages.get("complete")
        record.commit = stages.get("commit")
        if record.commit is not None and record.complete is None:
            record.complete = record.commit
        records.append(record)
    return records
