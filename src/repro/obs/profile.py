"""Lightweight phase-timing profiler for the driver scripts.

``scripts/run_experiments.py`` wraps each figure/table sweep in a
:class:`PhaseProfiler` phase; the resulting wall-time tree rides the
``profile`` key of ``results/BENCH_experiments.json`` so throughput
regressions can be localized to a phase without re-running anything.

The profiler measures host wall time only (``time.perf_counter``), so
it never participates in simulated state and is safe to use around
cached sweeps: the simulation outputs stay bit-identical whether or not
a profiler is active (``profile`` is volatile by construction and never
enters a report).
"""

from __future__ import annotations

# codelint: disable-file=DET-CLOCK — the profiler is the one sanctioned
# wall-clock consumer in repro.obs: its output is volatile by
# construction and never enters reports, goldens or cache keys
# (docs/TESTING.md, determinism rule 2).
import time
from contextlib import contextmanager


class _Phase:
    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: dict[str, _Phase] = {}

    def to_dict(self) -> dict:
        payload: dict = {
            "seconds": round(self.seconds, 6),
            "count": self.count,
        }
        if self.children:
            payload["phases"] = {
                name: child.to_dict()
                for name, child in self.children.items()
            }
        return payload


class PhaseProfiler:
    """Nested named wall-clock phases with a JSON-safe snapshot.

    >>> profiler = PhaseProfiler()
    >>> with profiler.phase("figure4"):
    ...     with profiler.phase("simulate"):
    ...         pass
    >>> tree = profiler.to_dict()

    Re-entering a phase name at the same nesting level accumulates into
    the same node (``count`` tracks entries).  The profiler is not
    thread-safe; drivers are single-threaded orchestration loops.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._root = _Phase("<root>")
        self._stack = [self._root]
        self._started = self._clock()

    @contextmanager
    def phase(self, name: str):
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = _Phase(name)
        node.count += 1
        self._stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            node.seconds += self._clock() - start
            self._stack.pop()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def to_dict(self) -> dict:
        """``{"total_seconds": ..., "phases": {name: {...}}}`` tree."""
        return {
            "total_seconds": round(self.elapsed, 6),
            "phases": {
                name: child.to_dict()
                for name, child in self._root.children.items()
            },
        }
