"""Functional-unit timing: issue bandwidth and the MOM vector pipes.

Scalar units (4 integer ALUs, 4 FP units, 4 memory ports) are fully
pipelined, so their constraint is issue bandwidth per cycle.  The SIMD
side differs per ISA:

* **MMX** — two independent packed FUs, both pipelined: up to two MMX
  instructions issue per cycle.
* **MOM** — one vector unit with two parallel pipes: one stream
  instruction issues per cycle, and the unit is then *occupied* for
  ``ceil(stream_length / lanes)`` cycles executing the packed
  sub-instructions (two per cycle).  This occupancy — not issue width —
  is MOM's structural throughput limit, and is exactly why MOM relieves
  fetch/issue bandwidth: 16 operations enter the window as one entry.
"""

from __future__ import annotations

import math


class VectorUnit:
    """The MOM media functional unit: ``lanes`` parallel vector pipes."""

    #: Dead cycles between issue and the first sub-instruction (operand
    #: fan-out across the stream register file banks).
    STARTUP = 2

    def __init__(self, lanes: int = 2):
        if lanes < 1:
            raise ValueError("need at least one vector pipe")
        self.lanes = lanes
        self._busy_until = 0
        self.busy_cycles = 0

    def occupancy_of(self, stream_length: int, reduction: bool = False) -> int:
        """Pipe cycles one stream instruction holds the unit.

        Element-wise operations run ``lanes`` sub-instructions per cycle;
        accumulator reductions fold serially into the packed accumulator
        (one element per cycle) — the price of the dependence chain the
        accumulator hardware internalizes.
        """
        if reduction:
            return max(1, stream_length)
        return max(1, math.ceil(stream_length / self.lanes))

    def execute(self, now: int, stream_length: int, latency: int,
                reduction: bool = False) -> int:
        """Run one stream instruction; returns its completion cycle."""
        start = max(now, self._busy_until)
        occupancy = self.occupancy_of(stream_length, reduction)
        self._busy_until = start + occupancy
        self.busy_cycles += occupancy
        return start + self.STARTUP + occupancy + latency - 1
