"""The serving event loop: arrivals and departures over a lockstep machine.

Both machine shapes — the paper's wide SMT and the CMP×SMT grid — are
driven through one protocol (``now``, ``step_cycle``,
``idle_skip_target``, ``cores``): each simulated cycle the driver admits
streams whose arrival time has come, steps every core one lockstep
cycle, and harvests completed streams; when the whole machine is idle it
jumps straight to the next arrival.  Streams are started by assigning a
trace to a specific hardware context — exactly the replacement path the
closed-loop scheduler uses inside ``SMTProcessor.step`` (predictor
reset + observer notification included) — so serving runs exercise the
same pipeline model as every other experiment.
"""

from __future__ import annotations

from collections import deque

from repro.core.cmp import CmpSystem
from repro.core.fetch import FetchPolicy
from repro.core.params import SMTConfig
from repro.core.smt import ProgressWatchdog, SMTProcessor
from repro.memory.decoupled import DecoupledHierarchy
from repro.memory.hierarchy import ConventionalHierarchy
from repro.serving.admission import AdmissionController, Slot
from repro.tracegen.program import Trace
from repro.workloads.streams import SERVING_MIXES, StreamDescriptor

#: Memory kinds a serving machine supports (the "perfect" analysis
#: memory is excluded: a served system without a memory system is not a
#: design point).
SERVING_MEMORY_KINDS = ("conventional", "decoupled")


class _StreamScheduler:
    """Scheduler duck-type that starts idle and never self-assigns.

    The serving driver owns all assignment decisions; the processor's
    completion path still calls :meth:`on_completion`, which counts the
    departure and frees the context (``None`` return).
    """

    def __init__(self, traces: list[Trace]):
        self.traces = traces
        self.done = False
        self._completions = 0

    def next_assignments(self, count: int) -> list:
        return []

    def on_completion(self):
        self._completions += 1
        return None

    @property
    def completions(self) -> int:
        return self._completions


class _SmtMachine:
    """Adapter giving a single ``SMTProcessor`` the lockstep protocol."""

    def __init__(self, processor: SMTProcessor):
        self.cores = [processor]

    @property
    def now(self) -> int:
        return self.cores[0].now

    @now.setter
    def now(self, value: int) -> None:
        self.cores[0].now = value

    def step_cycle(self) -> bool:
        return self.cores[0].step()

    def idle_skip_target(self) -> int | None:
        core = self.cores[0]
        if not any(ctx.trace is not None for ctx in core.threads):
            return None
        return core._skip_target()

    def finalize(self) -> None:
        self.cores[0]._finalize_sanitizer()


def build_serving_machine(
    arch: str,
    isa: str,
    cores: int,
    contexts: int,
    memory: str,
    traces: list[Trace],
    max_cycles: int = 50_000_000,
    observe="stalls",
):
    """Build a lockstep machine plus its stream scheduler.

    ``arch`` is ``"smt"`` (one paper-width SMT, ``cores`` must be 1) or
    ``"cmp"`` (``cores`` scaled-down cores × ``contexts`` SMT contexts
    over a shared L2).  ``observe`` is the cores' ``SMTConfig.observe``
    spec; the default counts stall causes only, which is all the stream
    records read.  Returns ``(machine, scheduler)``.
    """
    if arch not in ("smt", "cmp"):
        raise ValueError(f"unknown serving arch {arch!r}")
    if memory not in SERVING_MEMORY_KINDS:
        raise ValueError(
            f"unknown serving memory kind {memory!r}; "
            f"expected one of {SERVING_MEMORY_KINDS}"
        )
    scheduler = _StreamScheduler(traces)
    if arch == "smt":
        if cores != 1:
            raise ValueError("arch='smt' is a single (wide) processor")
        if memory == "decoupled":
            hierarchy = DecoupledHierarchy()
        else:
            hierarchy = ConventionalHierarchy()
        processor = SMTProcessor(
            SMTConfig(isa=isa, n_threads=contexts, observe=observe),
            hierarchy,
            traces,
            fetch_policy=FetchPolicy.RR,
            max_cycles=max_cycles,
            warmup_fraction=0.0,
            scheduler=scheduler,
        )
        return _SmtMachine(processor), scheduler
    system = CmpSystem(
        isa,
        cores,
        traces,
        max_cycles=max_cycles,
        warmup_fraction=0.0,
        contexts_per_core=contexts,
        memory=memory,
        observe=observe,
        scheduler=scheduler,
    )
    return system, scheduler


def derive_interarrival(
    palette: dict[str, Trace], mix: str, load: float, n_slots: int
) -> int:
    """Mean inter-arrival time hitting a target offered ``load``.

    The service estimate for one stream is its trace's stream-expanded
    instruction count (the cycles an ideal EIPC-1 context would need);
    dividing the mix-weighted mean estimate by ``load × n_slots``
    yields the arrival spacing at which the machine is offered ``load``
    of its aggregate capacity.  A pure function of traces and request
    fields, so cached results never depend on anything unfingerprinted.
    """
    if not 0.0 < load:
        raise ValueError("load must be positive")
    weighted = SERVING_MIXES[mix]
    total_weight = sum(weight for __, weight in weighted)
    mean_length = (
        sum(
            weight * palette[name].expanded_length
            for name, weight in weighted
        )
        / total_weight
    )
    return max(1, int(mean_length / (load * n_slots)))


def _stall_counts(core, context: int) -> dict:
    """Context's per-cause stall counters (insertion order is the fixed
    STALL_CAUSES order, so downstream JSON is deterministic)."""
    observer = core.stall_observer
    if observer is None:
        return {}
    counts = {}
    for cause, data in observer.stall_breakdown().items():
        per_thread = data["per_thread"]
        counts[cause] = per_thread[context] if context < len(per_thread) else 0
    return counts


class ServingSimulator:
    """Runs one open-loop schedule to completion over a machine."""

    def __init__(
        self,
        machine,
        scheduler: _StreamScheduler,
        admission: AdmissionController,
        schedule: list[StreamDescriptor],
        traces_by_stream: dict[int, Trace],
        max_cycles: int = 50_000_000,
    ):
        for stream in schedule:
            if stream.stream_id not in traces_by_stream:
                raise ValueError(
                    f"stream {stream.stream_id} ({stream.program!r}) has "
                    "no trace assigned"
                )
        self.machine = machine
        self.scheduler = scheduler
        self.admission = admission
        self.schedule = schedule
        self.traces_by_stream = traces_by_stream
        self.max_cycles = max_cycles
        #: (core, context) -> active stream record (dict, mutated in place)
        self.active: dict[tuple[int, int], dict] = {}
        self.records: list[dict] = []
        self.rejected: list[dict] = []

    # ----- stream lifecycle -------------------------------------------------

    def _start(self, stream: StreamDescriptor, slot: Slot, cycle: int) -> None:
        core = self.machine.cores[slot.core]
        ctx = core.threads[slot.context]
        if ctx.trace is not None:
            raise RuntimeError(
                f"admission placed stream {stream.stream_id} on busy "
                f"slot ({slot.core}, {slot.context})"
            )
        trace = self.traces_by_stream[stream.stream_id]
        ctx.assign(trace)
        core.predictor.reset_thread(slot.context)
        if core.observer is not None:
            core.observer.on_thread_assign(slot.context)
        self.active[(slot.core, slot.context)] = {
            "stream": stream.stream_id,
            "program": stream.program,
            "core": slot.core,
            "context": slot.context,
            "arrival": stream.arrival,
            "admitted": cycle,
            "deadline": stream.deadline(trace.expanded_length),
            "committed_before": core.committed_by_thread[slot.context],
            "stalls_before": _stall_counts(core, slot.context),
        }

    def _finish(self, key: tuple[int, int], cycle: int) -> None:
        record = self.active.pop(key)
        core = self.machine.cores[key[0]]
        record["completed"] = cycle
        record["latency"] = cycle - record["arrival"]
        record["service"] = cycle - record["admitted"]
        record["queue_wait"] = record["admitted"] - record["arrival"]
        record["missed"] = cycle > record["deadline"]
        record["committed"] = (
            core.committed_by_thread[key[1]] - record.pop("committed_before")
        )
        before = record.pop("stalls_before")
        after = _stall_counts(core, key[1])
        record["stalls"] = {
            cause: after[cause] - before.get(cause, 0)
            for cause in after
            if after[cause] - before.get(cause, 0)
        }
        self.records.append(record)

    def _offer(self, stream: StreamDescriptor, cycle: int) -> None:
        outcome, slot = self.admission.offer(stream)
        if outcome == "admitted":
            self._start(stream, slot, cycle)
        elif outcome == "rejected":
            self.rejected.append(
                {
                    "stream": stream.stream_id,
                    "program": stream.program,
                    "arrival": stream.arrival,
                }
            )

    # ----- the event loop ---------------------------------------------------

    def run(self) -> dict:
        machine = self.machine
        cores = machine.cores
        admission = self.admission
        watchdog = ProgressWatchdog()
        pending = deque(self.schedule)
        while pending or self.active:
            now = machine.now
            while pending and pending[0].arrival <= now:
                self._offer(pending.popleft(), now)
            if not self.active:
                if not pending:
                    break
                # Whole machine idle: jump straight to the next arrival.
                machine.now = max(machine.now, pending[0].arrival)
                continue
            if machine.now >= self.max_cycles:
                raise RuntimeError(
                    f"serving simulation exceeded {self.max_cycles} cycles "
                    f"with {len(self.active)} streams active"
                )
            watchdog.check(now, cores)
            completions_before = self.scheduler.completions
            worked = machine.step_cycle()
            now = machine.now  # completion cycle: step already advanced
            departed = self.scheduler.completions != completions_before
            if departed:
                for key in sorted(self.active):
                    core = machine.cores[key[0]]
                    if core.threads[key[1]].trace is None:
                        self._finish(key, now)
                        promoted = admission.release(Slot(*key))
                        if promoted is not None:
                            stream, slot = promoted
                            self._start(stream, slot, now)
            elif not worked:
                target = machine.idle_skip_target()
                if target is not None and pending:
                    target = min(target, pending[0].arrival)
                elif target is None:
                    target = pending[0].arrival if pending else now
                machine.now = max(now, target)
        if admission.queue:
            raise RuntimeError(
                f"{len(admission.queue)} streams stranded in the admission "
                "queue after all slots drained"
            )
        machine.finalize()
        return {
            "streams": self.records,
            "rejected": self.rejected,
            "cycles": machine.now,
        }
