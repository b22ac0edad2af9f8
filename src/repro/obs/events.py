"""Structured pipeline event stream and per-instruction lifetime records.

Enabled with ``SMTConfig(observe=...)``, a :class:`PipelineObserver` is
hooked into the five pipeline stages of :class:`repro.core.smt.SMTProcessor`
and into the memory hierarchy's L1/L2/I-cache/MSHR/write-buffer/stream-
bypass paths.  Disabled (the default) every hook site is a single
``is not None`` test — the observability layer must be provably free
when off, which the bit-identity suite (``tests/test_obs_bitident.py``)
and the hot-loop guard enforce.

Like the runtime sanitizer, the observer is duck-typed: it imports
nothing from :mod:`repro.core` or :mod:`repro.memory`, so those packages
hook it without import cycles, and the two layers share the same
attachment points (``window.observer``, ``queue``-side entries, the
memory walker — see :meth:`repro.memory.interface.MemorySystem.attach_observer`).

Event model
-----------

* **Per-instruction lifetime records** (:class:`InstRecord`): one record
  per fetched instruction carrying the cycle of each stage —
  ``fetch <= dispatch <= issue <= complete <= commit`` (strict except
  complete/commit, which the fused step can perform in one cycle).  A
  squashed instruction records its squash cycle and never receives
  further stage events.
* **Memory events**: ``(cycle, component, kind, thread, latency, hit)``
  tuples from the hierarchy hot paths (``thread == -1`` when the
  component does not know the requesting context, e.g. the L2 banks).
* **Metrics** (:class:`repro.obs.metrics.MetricsRegistry`): hierarchical
  counters/histograms per component per thread, including the
  ``smt.stall`` stall-cause breakdown the experiment reports surface.

The stall counters alone are a :class:`StallObserver`, the base class of
:class:`PipelineObserver`.  With ``observe="stalls"`` the core attaches
only that: no stage or memory hook runs, so serving and the stall-cause
breakdown pay for the counters they read and nothing else.

Both event lists are bounded (``max_records`` / ``max_events``); past
the cap the metrics keep counting and the drop counts are reported, so
long runs stay observable without unbounded memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Stage names in pipeline order (also the record attribute names).
STAGES = ("fetch", "dispatch", "issue", "complete", "commit")

#: Stall causes the core attributes, per thread per cycle (fetch side)
#: or per failed dispatch attempt (dispatch side).
STALL_CAUSES = (
    "fetch_blocked_branch",    # wrong-path fetch behind an unresolved branch
    "fetch_icache",            # waiting on an I-cache fill
    "fetch_decode_full",       # decode buffer back-pressure
    "fetch_no_slot",           # lost the fetch-group arbitration
    "dispatch_queue_full",     # target issue queue at capacity
    "dispatch_window_full",    # graduation window at capacity
    "dispatch_pool_empty",     # no free rename register of the class
)


class ObservabilityError(AssertionError):
    """An event-stream invariant was broken.

    Mirrors :class:`repro.verify.sanitizer.InvariantViolation`: carries
    the violating ``component``, a stable ``code`` (e.g.
    ``"OBS-STAGE-ORDER"``) and a ``details`` mapping so tests assert on
    the exact failure rather than parse a message.
    """

    def __init__(
        self,
        component: str,
        code: str,
        message: str,
        details: dict[str, Any] | None = None,
    ):
        super().__init__(f"[{code}] {component}: {message}")
        self.component = component
        self.code = code
        self.message = message
        self.details = details or {}

    def __reduce__(self):
        # Like InvariantViolation: the default BaseException reduction
        # reconstructs via ``cls(formatted_message)``, which for this
        # signature is a TypeError at unpickle time — an observed run
        # raising in a pool worker would surface as a bare pickling
        # error with the structured payload lost.
        return (
            self.__class__,
            (self.component, self.code, self.message, self.details),
        )


class InstRecord:
    """Lifetime of one fetched instruction through the pipeline."""

    __slots__ = (
        "uid",
        "thread",
        "pc",
        "op",
        "stream_length",
        "mispredicted",
        "fetch",
        "dispatch",
        "issue",
        "complete",
        "commit",
        "squash",
    )

    def __init__(
        self,
        uid: int,
        thread: int,
        pc: int,
        op: int,
        stream_length: int,
        fetch: int,
        mispredicted: bool,
    ):
        self.uid = uid
        self.thread = thread
        self.pc = pc
        self.op = op
        self.stream_length = stream_length
        self.mispredicted = mispredicted
        self.fetch = fetch
        self.dispatch: int | None = None
        self.issue: int | None = None
        self.complete: int | None = None
        self.commit: int | None = None
        self.squash: int | None = None

    @property
    def squashed(self) -> bool:
        return self.squash is not None

    @property
    def committed(self) -> bool:
        return self.commit is not None

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = " ".join(
            f"{stage[0].upper()}{getattr(self, stage)}"
            for stage in STAGES
            if getattr(self, stage) is not None
        )
        return f"<InstRecord #{self.uid} t{self.thread} {stages}>"


class StallObserver:
    """Counts stalled fetch/dispatch opportunities by cause and thread.

    The core calls only :meth:`stall`; nothing else is hooked, so a run
    observed with ``observe="stalls"`` pays one call per stalled slot and
    no per-instruction or per-memory-transaction cost.  The counters live
    under ``smt.stall`` of :attr:`registry`.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._stall = {
            cause: self.registry.counter("smt.stall", cause)
            for cause in STALL_CAUSES
        }

    def stall(self, cause: str, thread: int, n: int = 1) -> None:
        """Attribute a stalled fetch/dispatch opportunity to a cause."""
        self._stall[cause].add(thread, n)

    def stall_breakdown(self) -> dict:
        """Per-thread stall-cause counts: ``{cause: [per-thread], ...}``."""
        breakdown = {}
        for cause in STALL_CAUSES:
            counter = self._stall[cause]
            if counter.total:
                breakdown[cause] = {
                    "total": counter.total,
                    "per_thread": list(counter.per_thread),
                }
        return breakdown

    def snapshot(self) -> dict:
        """JSON-safe provenance: the metrics tree (``smt.stall`` only)."""
        return {"metrics": self.registry.to_dict()}


class PipelineObserver(StallObserver):
    """Collects the event stream and metrics of one simulated core.

    Parameters
    ----------
    events:
        Record per-instruction lifetimes and memory events.  ``False``
        keeps only the metrics registry.
    max_records / max_events:
        Bounds on the two event lists; past them the drop counters
        advance and metrics keep counting.
    """

    def __init__(
        self,
        events: bool = True,
        max_records: int = 1_000_000,
        max_events: int = 1_000_000,
    ):
        super().__init__()
        self.events = events
        self.max_records = max_records
        self.max_events = max_events
        self.records: list[InstRecord] = []
        self.mem_events: list[tuple] = []
        self.dropped_records = 0
        self.dropped_events = 0
        #: Per-thread queues of records mirroring the decode buffers
        #: (``None`` placeholders once ``max_records`` is reached).
        self._pending: list[deque] = []
        #: id(InFlight entry) -> record, for the post-dispatch stages.
        #: Entries are removed at commit/squash, before the core can
        #: free them, so a reused ``id()`` can never mis-associate.
        self._by_entry: dict[int, InstRecord] = {}
        self._next_uid = 0
        registry = self.registry
        self._fetched = registry.counter("smt.fetch", "instructions")
        self._dispatched = registry.counter("smt.dispatch", "instructions")
        self._issued = registry.counter("smt.issue", "instructions")
        self._completed = registry.counter("smt.complete", "instructions")
        self._committed = registry.counter("smt.commit", "instructions")
        self._squashed = registry.counter("smt.commit", "squashed")
        self._queue_wait = registry.histogram("smt.issue", "queue_wait")
        self._exec_latency = registry.histogram("smt.issue", "exec_latency")
        self._mem_counters: dict[tuple[str, str], Any] = {}
        self._mem_latency: dict[str, Any] = {}

    # ----- pipeline stages (called by the SMT core) -------------------------

    def _pending_of(self, thread: int) -> deque:
        pending = self._pending
        while thread >= len(pending):
            pending.append(deque())
        return pending[thread]

    def on_fetch(
        self, thread: int, inst, now: int, mispredicted: bool
    ) -> None:
        """One instruction entered a decode buffer this cycle."""
        self._fetched.add(thread)
        if not self.events:
            return
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            self._pending_of(thread).append(None)
            return
        record = InstRecord(
            self._next_uid,
            thread,
            inst.pc,
            int(inst.op),
            inst.stream_length,
            now,
            mispredicted,
        )
        self._next_uid += 1
        self.records.append(record)
        self._pending_of(thread).append(record)

    def on_thread_assign(self, thread: int) -> None:
        """The context was handed a new program (decode buffer cleared)."""
        if thread < len(self._pending):
            self._pending[thread].clear()

    def on_dispatch(self, thread: int, entry, now: int) -> None:
        """The decode head renamed and entered window + issue queue."""
        self._dispatched.add(thread)
        if not self.events:
            return
        pending = self._pending_of(thread)
        record = pending.popleft() if pending else None
        if record is not None:
            record.dispatch = now
            self._by_entry[id(entry)] = record


    def on_issue(self, entry, now: int, done: int) -> None:
        """The entry left its issue queue; results arrive at ``done``."""
        self._issued.add(entry.thread)
        self._queue_wait.observe(0, entry.thread, 0)  # keep thread row alive
        if not self.events:
            return
        record = self._by_entry.get(id(entry))
        if record is None or record.squash is not None:
            return
        record.issue = now
        if record.dispatch is not None:
            self._queue_wait.observe(now - record.dispatch, entry.thread)
        self._exec_latency.observe(done - now, entry.thread)

    def on_complete(self, entry, now: int) -> None:
        """The entry's result arrived and woke its dependents."""
        self._completed.add(entry.thread)
        if not self.events:
            return
        record = self._by_entry.get(id(entry))
        if record is None or record.squash is not None:
            return
        record.complete = now

    def on_commit(self, thread: int, entry, now: int) -> None:
        """The entry retired from the graduation window."""
        self._committed.add(thread)
        if not self.events:
            return
        record = self._by_entry.pop(id(entry), None)
        if record is None or record.squash is not None:
            return
        record.commit = now

    def on_squash(self, thread: int, entries, now: int) -> None:
        """A per-thread flush squashed these window entries."""
        self._squashed.add(thread, len(entries))
        if not self.events:
            return
        for entry in entries:
            record = self._by_entry.pop(id(entry), None)
            if record is not None:
                record.squash = now

    # ----- memory events (called by the hierarchies) ------------------------

    def _mem_counter(self, component: str, kind: str):
        key = (component, kind)
        counter = self._mem_counters.get(key)
        if counter is None:
            counter = self._mem_counters[key] = self.registry.counter(
                f"memory.{component}", kind
            )
        return counter

    def mem_access(
        self,
        component: str,
        thread: int,
        kind: str,
        hit: bool | None,
        now: int,
        latency: int,
        n: int = 1,
    ) -> None:
        """A cache-level transaction (one coalesced line for streams).

        ``hit=None`` means the emitting path cannot tell (the stream-
        bypass port does not see the L2 tag outcome); the count is then
        recorded under the bare ``kind``.
        """
        name = kind if hit is None else kind + ("_hit" if hit else "_miss")
        self._mem_counter(component, name).add(thread, n)
        histogram = self._mem_latency.get(component)
        if histogram is None:
            histogram = self._mem_latency[component] = self.registry.histogram(
                f"memory.{component}", "latency"
            )
        histogram.observe(latency, thread, n)
        if self.events:
            if len(self.mem_events) < self.max_events:
                self.mem_events.append(
                    (now, component, kind, thread, latency, hit)
                )
            else:
                self.dropped_events += 1

    def mem_note(
        self, component: str, kind: str, thread: int, now: int
    ) -> None:
        """A structural memory event: MSHR allocation, write-buffer
        full stall, stream-bypass invalidation."""
        self._mem_counter(component, kind).add(thread)
        if self.events:
            if len(self.mem_events) < self.max_events:
                self.mem_events.append(
                    (now, component, kind, thread, 0, False)
                )
            else:
                self.dropped_events += 1

    # ----- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe provenance for :attr:`RunResult.observability`.

        Per-instruction records and raw memory events stay on the
        observer (they are bulky and tool-facing); the snapshot carries
        the metrics tree plus the event-stream accounting.
        """
        return {
            "metrics": self.registry.to_dict(),
            "records": len(self.records),
            "mem_events": len(self.mem_events),
            "dropped_records": self.dropped_records,
            "dropped_events": self.dropped_events,
        }


def resolve_observer(observe) -> StallObserver | None:
    """Normalize the ``SMTConfig.observe`` field into an observer.

    ``None``/``False`` disable observation; ``True`` builds a full
    observer; ``"metrics"`` builds a metrics-only observer (no event
    lists); ``"stalls"`` builds a :class:`StallObserver` (stall counters
    only — what serving and the stall-cause breakdown use); a ready
    :class:`PipelineObserver` (or any duck-typed equivalent) passes
    through.
    """
    if observe is None or observe is False:
        return None
    if observe is True:
        return PipelineObserver()
    if observe == "metrics":
        return PipelineObserver(events=False)
    if observe == "stalls":
        return StallObserver()
    return observe


# --------------------------------------------------------------- validation


def _check_order(record: InstRecord) -> None:
    previous_stage = "fetch"
    previous = record.fetch
    for stage in ("dispatch", "issue", "complete"):
        value = getattr(record, stage)
        if value is None:
            break
        if value <= previous:
            raise ObservabilityError(
                "events", "OBS-STAGE-ORDER",
                f"record #{record.uid}: {stage} at cycle {value} does not "
                f"follow {previous_stage} at cycle {previous}",
                {"uid": record.uid, "stage": stage,
                 "cycle": value, "previous": previous},
            )
        previous_stage = stage
        previous = value
    if record.commit is not None:
        # The fused step completes and commits back to front within one
        # cycle, so commit may equal complete — never precede it.
        if record.complete is None or record.commit < record.complete:
            raise ObservabilityError(
                "events", "OBS-STAGE-ORDER",
                f"record #{record.uid}: commit at cycle {record.commit} "
                f"precedes completion at {record.complete}",
                {"uid": record.uid, "stage": "commit",
                 "cycle": record.commit, "previous": record.complete},
            )


def validate_records(records: list[InstRecord]) -> int:
    """Check the event-stream invariants over a run's records.

    * stage ordering ``fetch < dispatch < issue < complete <= commit``
      per instruction (later stages may be unset for in-flight work);
    * a stage is only ever unset if every later stage is unset too;
    * per-thread fetch and commit cycles are monotone in program order
      (trace-driven front end, per-thread in-order retirement);
    * a squashed record carries no commit and no stage event after its
      squash cycle.

    Returns the number of records checked; raises
    :class:`ObservabilityError` on the first violation.
    """
    last_fetch: dict[int, tuple[int, int]] = {}
    last_commit: dict[int, tuple[int, int]] = {}
    for record in records:
        if record.fetch is None or record.fetch < 0:
            raise ObservabilityError(
                "events", "OBS-NO-FETCH",
                f"record #{record.uid} has no valid fetch cycle",
                {"uid": record.uid, "fetch": record.fetch},
            )
        seen_unset = False
        for stage in STAGES:
            value = getattr(record, stage)
            if value is None:
                seen_unset = True
            elif seen_unset:
                raise ObservabilityError(
                    "events", "OBS-STAGE-GAP",
                    f"record #{record.uid}: {stage} is set but an earlier "
                    "stage is missing",
                    {"uid": record.uid, "stage": stage},
                )
        _check_order(record)
        if record.squash is not None:
            if record.commit is not None:
                raise ObservabilityError(
                    "events", "OBS-POST-SQUASH",
                    f"record #{record.uid} committed at cycle "
                    f"{record.commit} despite being squashed at "
                    f"{record.squash}",
                    {"uid": record.uid, "commit": record.commit,
                     "squash": record.squash},
                )
            for stage in ("issue", "complete"):
                value = getattr(record, stage)
                if value is not None and value > record.squash:
                    raise ObservabilityError(
                        "events", "OBS-POST-SQUASH",
                        f"record #{record.uid}: {stage} event at cycle "
                        f"{value} after squash at {record.squash}",
                        {"uid": record.uid, "stage": stage, "cycle": value,
                         "squash": record.squash},
                    )
        previous = last_fetch.get(record.thread)
        if previous is not None and record.fetch < previous[1]:
            raise ObservabilityError(
                "events", "OBS-FETCH-ORDER",
                f"record #{record.uid} fetched at cycle {record.fetch}, "
                f"before #{previous[0]} of the same thread at "
                f"{previous[1]}",
                {"uid": record.uid, "thread": record.thread,
                 "fetch": record.fetch, "previous": previous},
            )
        last_fetch[record.thread] = (record.uid, record.fetch)
        if record.commit is not None:
            previous = last_commit.get(record.thread)
            if previous is not None and record.commit < previous[1]:
                raise ObservabilityError(
                    "events", "OBS-COMMIT-ORDER",
                    f"record #{record.uid} committed at cycle "
                    f"{record.commit}, before #{previous[0]} of the same "
                    f"thread at {previous[1]}",
                    {"uid": record.uid, "thread": record.thread,
                     "commit": record.commit, "previous": previous},
                )
            last_commit[record.thread] = (record.uid, record.commit)
    return len(records)
