"""Outside-in host-time tracer for the perf benchmark.

The tracer measures the simulator's layers without editing them: for
the duration of a ``with traced(tracer):`` block it replaces public
functions and methods of each layer (:data:`TARGETS`) with timing
wrappers, and it always restores the original attributes on exit.

Calls are aggregated per ``(function, parent)`` pair into a count, a
total time and the time spent in wrapped children, so a function's
self time is its total minus its children.  A few coarse boundaries
(figure batches, simulation points, trace builds, plus the benchmark's
own workload and round spans) are also kept as spans with ids and
parents, and :meth:`Tracer.write` stores them as Chrome-trace JSON that
Perfetto opens, beside a plain-text layer table.

Layers are repo modules: ``tracegen`` (``repro.tracegen``,
``repro.workloads``), ``core`` (``repro.core.smt``, ``repro.core.cmp``),
``memory`` (``repro.memory``), ``runner`` (``repro.analysis.runner``),
``drivers`` (``repro.analysis.experiments`` and the serving driver) and
``serving`` (``repro.serving``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``owner`` is ``"module"`` or ``"module:Class"``."""

    label: str
    owner: str
    attr: str
    #: Also record one coarse span per call (figure, point or trace).
    span: bool = False
    #: Units of work a call produced, from its return value.
    work: Callable | None = None


def _memory_targets() -> list[Target]:
    targets = []
    for module, cls in (
        ("repro.memory.hierarchy", "ConventionalHierarchy"),
        ("repro.memory.decoupled", "DecoupledHierarchy"),
        ("repro.memory.perfect", "PerfectMemory"),
    ):
        for attr in ("access", "access_stream", "fetch", "warm", "warm_stream", "warm_fetch"):
            targets.append(Target(f"memory.{cls}.{attr}", f"{module}:{cls}", attr))
    return targets


#: The paper-report drivers of ``repro.analysis.experiments``.
FIGURE_DRIVERS = (
    "run_breakdown_table3",
    "run_fig4_ideal",
    "run_fig5_real",
    "run_table4_cache",
    "run_fig6_fetch",
    "run_fig8_decoupled",
    "run_fig9_summary",
    "run_stall_breakdown",
)

#: Every function the tracer wraps, by layer.
TARGETS: tuple[Target, ...] = (
    Target("tracegen.build_program_trace", "repro.tracegen.program",
           "build_program_trace", span=True, work=len),
    Target("tracegen.save_trace", "repro.tracegen.serialize", "save_trace"),
    Target("tracegen.load_trace", "repro.tracegen.serialize", "load_trace"),
    Target("core.SMTProcessor.run", "repro.core.smt:SMTProcessor", "run"),
    Target("core.SMTProcessor.step", "repro.core.smt:SMTProcessor", "step"),
    Target("core.CmpSystem.step_cycle", "repro.core.cmp:CmpSystem", "step_cycle"),
    *_memory_targets(),
    Target("memory.L1DataCache.load_line", "repro.memory.cache:L1DataCache", "load_line"),
    Target("memory.L1DataCache.store_line", "repro.memory.cache:L1DataCache", "store_line"),
    Target("memory.InstructionCache.fetch_line", "repro.memory.cache:InstructionCache",
           "fetch_line"),
    Target("memory.L2Cache.access", "repro.memory.cache:L2Cache", "access"),
    Target("runner.execute_request", "repro.analysis.runner", "execute_request", span=True),
    Target("runner.execute_serving_request", "repro.analysis.serving",
           "execute_serving_request", span=True),
    Target("runner.result_to_dict", "repro.analysis.runner", "result_to_dict"),
    Target("runner.result_from_dict", "repro.analysis.runner", "result_from_dict"),
    Target("runner.ResultStore.store", "repro.analysis.runner:ResultStore", "store"),
    Target("runner.ResultStore.load", "repro.analysis.runner:ResultStore", "load"),
    Target("runner.RunRequest.fingerprint", "repro.analysis.runner:RunRequest", "fingerprint"),
    Target("runner.ServingRequest.fingerprint", "repro.analysis.serving:ServingRequest",
           "fingerprint"),
    Target("runner.code_version", "repro.analysis.runner", "code_version"),
    Target("runner.serving_code_version", "repro.analysis.serving", "serving_code_version"),
    *(
        Target(f"drivers.{name}", "repro.analysis.experiments", name, span=True)
        for name in FIGURE_DRIVERS
    ),
    Target("drivers.run_serving_scenario", "repro.analysis.serving",
           "run_serving_scenario", span=True),
    Target("serving.ServingSimulator.run", "repro.serving.simulator:ServingSimulator", "run"),
    Target("serving.AdmissionController.offer", "repro.serving.admission:AdmissionController",
           "offer"),
    Target("serving.AdmissionController.release",
           "repro.serving.admission:AdmissionController", "release"),
    Target("serving.meter_result", "repro.serving.metering", "meter_result"),
)


_MEMORY = ("memory.ConventionalHierarchy.", "memory.DecoupledHierarchy.",
           "memory.PerfectMemory.")
BUILD = frozenset({"tracegen.build_program_trace"})
TRACE_IO = frozenset({"tracegen.save_trace", "tracegen.load_trace"})
STEP = frozenset({"core.SMTProcessor.step"})
RUN = frozenset({"core.SMTProcessor.run"})
CMP_STEP = frozenset({"core.CmpSystem.step_cycle"})
ACCESS = frozenset(p + a for p in _MEMORY for a in ("access", "access_stream"))
FETCH = frozenset(p + "fetch" for p in _MEMORY)
WARM = frozenset(p + a for p in _MEMORY for a in ("warm", "warm_stream", "warm_fetch"))
L1 = frozenset({"memory.L1DataCache.load_line", "memory.L1DataCache.store_line"})
ICACHE = frozenset({"memory.InstructionCache.fetch_line"})
L2 = frozenset({"memory.L2Cache.access"})
SERIALIZE = frozenset({"runner.result_to_dict", "runner.result_from_dict"})
CACHE_WRITE = frozenset({"runner.ResultStore.store"})
CACHE_READ = frozenset({"runner.ResultStore.load"})
FINGERPRINT = frozenset({
    "runner.RunRequest.fingerprint", "runner.ServingRequest.fingerprint",
    "runner.code_version", "runner.serving_code_version",
})
DRIVERS = frozenset(t.label for t in TARGETS if t.label.startswith("drivers."))
SERVING_RUN = frozenset({"serving.ServingSimulator.run"})
ADMISSION = frozenset({
    "serving.AdmissionController.offer", "serving.AdmissionController.release",
})
METER = frozenset({"serving.meter_result"})


class Tracer:
    """Call aggregates and coarse spans, kept in memory until written.

    ``clock`` is the time source; tests substitute a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``(label, parent label or None)`` → ``[count, total, children]``.
        self.calls: dict[tuple[str, str | None], list] = {}
        #: label → summed ``Target.work`` of its calls.
        self.work: dict[str, int] = {}
        #: ``{"id", "parent", "name", "start", "end"}`` per closed span.
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._open_spans: list[tuple[int, str, int | None]] = []
        self._next_span_id = 0
        self._origin = clock()

    # ----- aggregation ------------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A timing wrapper for ``fn`` that reports as ``target.label``."""
        label, span, work = target.label, target.span, target.work
        calls, stack, clock = self.calls, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            if span:
                self._open_span(label)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = calls.get((label, parent))
                if record is None:
                    calls[(label, parent)] = [1, elapsed, frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += frame[1]
                if span:
                    self._close_span(start, start + elapsed)
            if work is not None:
                self.work[label] = self.work.get(label, 0) + work(result)
            return result

        return wrapper

    def count(self, labels) -> int:
        return sum(r[0] for (label, _), r in self.calls.items() if label in labels)

    def inclusive(self, labels) -> float:
        """Total time of ``labels`` calls whose nearest wrapped caller is not in ``labels``.

        So a group member called straight from another is not counted twice.
        """
        return sum(
            r[1]
            for (label, parent), r in self.calls.items()
            if label in labels and parent not in labels
        )

    def self_time(self, labels) -> float:
        """Time inside ``labels`` minus the wrapped calls they made."""
        return sum(
            r[1] - r[2] for (label, _), r in self.calls.items() if label in labels
        )

    # ----- spans ------------------------------------------------------------

    def _open_span(self, name: str) -> None:
        self._next_span_id += 1
        parent = self._open_spans[-1][0] if self._open_spans else None
        self._open_spans.append((self._next_span_id, name, parent))

    def _close_span(self, start: float, end: float) -> None:
        # Spans nest (wrappers and ``span`` close in ``finally``), so the
        # innermost open span is the one closing.
        span_id, name, parent = self._open_spans.pop()
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start": start - self._origin, "end": end - self._origin,
        })

    @contextmanager
    def span(self, name: str):
        """A coarse span around the benchmark's own code (workload, round)."""
        self._open_span(name)
        start = self.clock()
        try:
            yield
        finally:
            self._close_span(start, self.clock())

    # ----- output -----------------------------------------------------------

    def table(self) -> str:
        """One line per (function, parent): calls, total and self seconds."""
        lines = [f"{'function':44} {'parent':44} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (label, parent), (count, total, children) in sorted(
            self.calls.items(), key=lambda item: -(item[1][1] - item[1][2])
        ):
            lines.append(
                f"{label:44} {parent or '-':44} {count:9d} "
                f"{total:9.3f} {total - children:9.3f}"
            )
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """Spans as Chrome-trace complete events (open in ui.perfetto.dev)."""
        events = [
            {
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span["id"], "parent": span["parent"]},
            }
            for span in sorted(self.spans, key=lambda s: (s["start"], -s["end"]))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, out_dir: str, workload: str) -> tuple[str, str]:
        """Write ``trace-<workload>.json`` and ``layers-<workload>.txt``."""
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{workload}.json")
        table_path = os.path.join(out_dir, f"layers-{workload}.txt")
        with open(trace_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        with open(table_path, "w") as handle:
            handle.write(self.table() + "\n")
        return trace_path, table_path


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Install ``tracer``'s wrappers on ``targets``; restore them on exit.

    A module-level function is replaced in its defining module and in
    every loaded ``repro`` module that imported it by name; on exit it
    is restored in every ``repro`` module holding the wrapper, including
    modules first imported inside the block.  A method is replaced on
    its class; one the class only inherited is deleted again on exit,
    so inheritance is restored exactly.
    """
    methods: list[tuple[type, str, object, bool]] = []
    functions: list[tuple[str, Callable, Callable]] = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            # Static lookup: a staticmethod or classmethod must not be
            # replaced by a plain function, which would bind differently.
            fn = inspect.getattr_static(owner, target.attr)
            if not inspect.isfunction(fn):
                raise TypeError(f"{target.label} is not a plain function")
            wrapper = tracer.wrap(target, fn)
            if inspect.isclass(owner):
                methods.append((
                    owner, target.attr, owner.__dict__.get(target.attr),
                    target.attr in owner.__dict__,
                ))
                setattr(owner, target.attr, wrapper)
                continue
            functions.append((target.attr, fn, wrapper))
            for module in _repro_modules():
                if getattr(module, target.attr, None) is fn:
                    setattr(module, target.attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original, own in reversed(methods):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for module in _repro_modules():
            for attr, fn, wrapper in functions:
                if getattr(module, attr, None) is wrapper:
                    setattr(module, attr, fn)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics a traced run measures (see README.md)."""
    build_s = tracer.inclusive(BUILD)
    steps = tracer.count(STEP)
    step_self = tracer.self_time(STEP)
    access_calls = tracer.count(ACCESS)
    access_s = tracer.inclusive(ACCESS)
    return {
        "tracegen.build_s": build_s,
        "tracegen.kinst_per_s": (
            tracer.work.get("tracegen.build_program_trace", 0) / build_s / 1e3
            if build_s else 0.0
        ),
        "tracegen.io_s": tracer.inclusive(TRACE_IO),
        "core.steps": steps,
        "core.step_self_s": step_self,
        "core.ns_per_step": step_self / steps * 1e9 if steps else 0.0,
        "core.run_self_s": tracer.self_time(RUN),
        "core.cmp_self_s": tracer.self_time(CMP_STEP),
        "memory.access_calls": access_calls,
        "memory.access_s": access_s,
        "memory.ns_per_access": access_s / access_calls * 1e9 if access_calls else 0.0,
        "memory.fetch_calls": tracer.count(FETCH),
        "memory.fetch_s": tracer.inclusive(FETCH),
        "memory.warm_calls": tracer.count(WARM),
        "memory.warm_s": tracer.inclusive(WARM),
        "memory.l1_s": tracer.self_time(L1),
        "memory.icache_s": tracer.self_time(ICACHE),
        "memory.l2_s": tracer.self_time(L2),
        "runner.serialize_s": tracer.inclusive(SERIALIZE),
        "runner.cache_write_s": tracer.inclusive(CACHE_WRITE),
        "runner.cache_read_s": tracer.inclusive(CACHE_READ),
        "runner.fingerprint_s": tracer.inclusive(FINGERPRINT),
        "drivers.self_s": tracer.self_time(DRIVERS),
        "serving.self_s": tracer.self_time(SERVING_RUN),
        "serving.admission_s": tracer.inclusive(ADMISSION),
        "serving.meter_s": tracer.inclusive(METER),
    }
