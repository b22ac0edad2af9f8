"""Opt-in runtime invariant checking for the cycle-level core.

Enabled with ``SMTConfig(sanitize=True)``; disabled (the default) the
hooks are a single ``is None`` test on a component attribute, so the
simulator's hot loops keep their speed.  When enabled, the sanitizer is
attached to the graduation window, the issue queues and the memory
hierarchy's MSHR files and write buffers, and raises a structured
:class:`InvariantViolation` the moment a microarchitectural invariant
breaks — rather than letting a modeling bug silently skew results:

* **retirement order** — entries leave the graduation window in
  per-thread program order (the paper's per-thread in-order graduate);
* **window/queue occupancy** — shared-capacity structures never exceed
  capacity, and their occupancy counters agree with their contents;
* **MSHR leaks** — a cache never tracks more outstanding misses than it
  has MSHRs, and no fill is pending past the end of the run;
* **write-buffer drain** — the coalescing buffer never exceeds its
  depth and fully drains within its worst-case horizon;
* **stream bypass** — under the decoupled organization a stream access
  must never leave its line resident in L1 (exclusive-bit rule).

The sanitizer is duck-typed: it imports nothing from :mod:`repro.core`
or :mod:`repro.memory`, so those packages can hook it without import
cycles.
"""

from __future__ import annotations

from typing import Any


class InvariantViolation(AssertionError):
    """A runtime microarchitectural invariant was broken.

    Carries the violating ``component`` (e.g. ``"rob"``), a stable
    ``code`` (e.g. ``"SAN-RETIRE-ORDER"``) and a ``details`` mapping
    with the observed values, so tests and tools can assert on the
    exact failure rather than parse a message.
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
        # The default BaseException reduction pickles only ``args`` (the
        # formatted message) and reconstructs via ``cls(*args)`` — which
        # for this signature is a TypeError at unpickle time.  A worker
        # process raising a violation would then surface in the parent
        # as a bare pickling error with the structured payload lost;
        # rebuild from the real fields instead.
        return (
            self.__class__,
            (self.component, self.code, self.message, self.details),
        )


class RuntimeSanitizer:
    """Invariant checker shared by every hooked component of one core."""

    def __init__(self):
        self.checks = 0                       # checks executed (for tests)
        self._insert_seq: dict[int, int] = {}     # thread -> next seq to assign
        self._retire_seq: dict[int, int] = {}     # thread -> last retired seq
        self._entry_seq: dict[int, int] = {}      # id(entry) -> seq

    # ----- graduation window -------------------------------------------------

    def on_window_insert(self, window, thread: int, entry) -> None:
        seq = self._insert_seq.get(thread, 0)
        self._insert_seq[thread] = seq + 1
        self._entry_seq[id(entry)] = seq
        self.check_window(window)

    def on_window_retire(self, window, thread: int, entry) -> None:
        seq = self._entry_seq.pop(id(entry), None)
        if seq is not None:
            last = self._retire_seq.get(thread)
            if last is not None and seq <= last:
                raise InvariantViolation(
                    "rob", "SAN-RETIRE-ORDER",
                    f"thread {thread} retired dispatch-order #{seq} after "
                    f"#{last}; per-thread retirement must be in program "
                    "order",
                    {"thread": thread, "seq": seq, "last": last},
                )
            self._retire_seq[thread] = seq
        self.check_window(window)

    def check_window(self, window) -> None:
        self.checks += 1
        actual = sum(len(fifo) for fifo in window._fifos)
        if window.occupancy != actual:
            raise InvariantViolation(
                "rob", "SAN-WINDOW-COUNT",
                f"occupancy counter {window.occupancy} disagrees with "
                f"{actual} resident entries",
                {"counter": window.occupancy, "entries": actual},
            )
        if window.occupancy > window.capacity:
            raise InvariantViolation(
                "rob", "SAN-WINDOW-OVERFLOW",
                f"occupancy {window.occupancy} exceeds capacity "
                f"{window.capacity}",
                {"occupancy": window.occupancy, "capacity": window.capacity},
            )

    # ----- issue queues ------------------------------------------------------

    def check_queue(self, queue) -> None:
        self.checks += 1
        if not 0 <= queue.occupancy <= queue.capacity:
            raise InvariantViolation(
                "queue", "SAN-QUEUE-OCCUPANCY",
                f"{queue.name} queue occupancy {queue.occupancy} outside "
                f"0..{queue.capacity}",
                {
                    "queue": queue.name,
                    "occupancy": queue.occupancy,
                    "capacity": queue.capacity,
                },
            )
        if len(queue.ready) > queue.occupancy:
            raise InvariantViolation(
                "queue", "SAN-QUEUE-READY",
                f"{queue.name} queue has {len(queue.ready)} ready entries "
                f"but occupancy {queue.occupancy}",
                {
                    "queue": queue.name,
                    "ready": len(queue.ready),
                    "occupancy": queue.occupancy,
                },
            )

    # ----- MSHRs -------------------------------------------------------------

    def check_mshr(self, mshr, now: int) -> None:
        self.checks += 1
        outstanding = mshr.outstanding(now)
        if outstanding > mshr.n_entries:
            raise InvariantViolation(
                "mshr", "SAN-MSHR-LEAK",
                f"{outstanding} outstanding misses exceed the "
                f"{mshr.n_entries} MSHR entries",
                {"outstanding": outstanding, "entries": mshr.n_entries},
            )

    # ----- write buffer ------------------------------------------------------

    def check_writebuffer(self, buffer, now: int) -> None:
        self.checks += 1
        occupancy = buffer.occupancy(now)
        if occupancy > buffer.depth:
            raise InvariantViolation(
                "writebuffer", "SAN-WB-OVERFLOW",
                f"occupancy {occupancy} exceeds depth {buffer.depth}",
                {"occupancy": occupancy, "depth": buffer.depth},
            )

    # ----- decoupled stream bypass -------------------------------------------

    def check_stream_bypass(self, l1, phys: int) -> None:
        self.checks += 1
        if l1.contains(phys):
            raise InvariantViolation(
                "decoupled", "SAN-STREAM-L1-RESIDENT",
                f"stream access left line {phys:#x} resident in L1; the "
                "exclusive-bit rule requires invalidation before bypass",
                {"phys": phys},
            )

    # ----- end of run --------------------------------------------------------

    def finalize(self, now: int, window, queues, memory) -> None:
        """End-of-run checks: everything retired, drained and filled.

        ``now`` is the final simulation cycle.  Timestamp-based MSHRs and
        write buffers legitimately have entries draining just past the
        end of the run, so drain checks use each component's worst-case
        horizon rather than ``now`` itself.
        """
        # The run ends when the scheduler's completion target is reached;
        # other threads legitimately still hold in-flight work, so the
        # window and queues need not be empty — only consistent.
        self.check_window(window)
        for queue in queues:
            self.check_queue(queue)
        for name in ("l1", "l2", "icache"):
            cache = getattr(memory, name, None)
            if cache is None:
                continue
            mshr = getattr(cache, "mshr", None)
            if mshr is not None:
                # A miss can complete its fill shortly after the last
                # commit (store-allocated lines); far-future fills mean a
                # corrupted timestamp, i.e. a leaked entry.
                horizon = now + 100_000
                leaked = mshr.outstanding(horizon)
                if leaked:
                    raise InvariantViolation(
                        "mshr", "SAN-MSHR-LEAK",
                        f"{name}: {leaked} misses still pending "
                        f"{horizon - now} cycles past the end of the run",
                        {"cache": name, "leaked": leaked},
                    )
            buffer = getattr(cache, "write_buffer", None)
            if buffer is not None:
                # Stores accepted near the end of the run drain shortly
                # after it; every entry must drain by the buffer's own
                # drain high-water mark, else its timestamp is corrupt
                # and the entry would never leave.
                undrained = buffer.occupancy(buffer._last_drain)
                if undrained:
                    raise InvariantViolation(
                        "writebuffer", "SAN-WB-UNDRAINED",
                        f"{name}: {undrained} entries drain after the "
                        "buffer's last scheduled drain slot",
                        {"cache": name, "undrained": undrained},
                    )
