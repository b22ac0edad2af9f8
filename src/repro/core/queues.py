"""Out-of-order issue queues.

Each of the four queues (integer, FP, memory, SIMD) holds dispatched
instructions until their source operands are ready, then offers them to
the issue stage oldest-first.  Wakeup is event-driven: completing
producers decrement their dependents' outstanding-source counts and move
newly-ready instructions onto the ready list.
"""

from __future__ import annotations

from collections import deque


class IssueQueue:
    """One issue queue with bounded capacity and a FIFO ready list.

    The queue is plain state: :meth:`repro.core.smt.SMTProcessor.step`
    dispatches into it, wakes and issues from it, and calls the
    sanitizer's ``check_queue`` after each dispatch.  ``__slots__``
    keeps the per-queue attribute access cheap.
    """

    __slots__ = (
        "name",
        "capacity",
        "occupancy",
        "ready",
        "issued_total",
        "sanitizer",
    )

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.occupancy = 0
        self.ready: deque = deque()
        # Issue-bandwidth accounting for utilization reporting.
        self.issued_total = 0
        #: Optional :class:`repro.verify.sanitizer.RuntimeSanitizer`.
        self.sanitizer = None
