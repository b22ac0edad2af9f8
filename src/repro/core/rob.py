"""The graduation window: shared capacity, per-thread in-order retire.

The paper's SMT extension keeps one graduation window whose entries
retire in per-thread program order ("some additional logic is required in
the graduation window in order to allow per-thread retirements, as well
as a mechanism to perform per-thread instruction flush").  We model it as
a shared occupancy budget with one FIFO per hardware context.  Nothing
is ever flushed: the trace holds only the correct path, and a
mispredicted branch blocks its thread's fetch until it resolves
(``docs/MODEL.md``, "Branch handling").
"""

from __future__ import annotations

from collections import deque


class GraduationWindow:
    """Shared-capacity reorder window with per-thread FIFOs.

    The window is plain state: :meth:`repro.core.smt.SMTProcessor.step`
    appends to and retires from ``_fifos`` and keeps ``occupancy``, and
    calls the sanitizer's ``on_window_insert`` / ``on_window_retire``
    hooks at each insert and retire.
    """

    __slots__ = ("capacity", "occupancy", "_fifos", "sanitizer")

    def __init__(self, capacity: int, n_threads: int):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self.occupancy = 0
        self._fifos: list[deque] = [deque() for __ in range(n_threads)]
        #: Optional :class:`repro.verify.sanitizer.RuntimeSanitizer`.
        self.sanitizer = None
