"""Tag arrays: set-associative lookup with LRU replacement.

A minimal, fast tag store used by every cache level.  Data values are not
stored (the simulator is timing-only); a line is present or absent, and
write-back caches track a dirty bit per line.
"""

from __future__ import annotations


class TagArray:
    """Set-associative tag array with true-LRU replacement.

    Each set is an ordered list of (tag, dirty) pairs, most recently used
    last.  Associativity 1 gives a direct-mapped cache.

    The hottest callers (the detailed ``load_line``/``fetch`` paths and
    the hierarchies' warming paths) index ``_sets`` inline with the
    same logic instead of calling these methods.
    """

    __slots__ = ("n_sets", "assoc", "_sets", "_set_mask")

    def __init__(self, n_sets: int, assoc: int):
        if n_sets < 1 or assoc < 1:
            raise ValueError("need at least one set and one way")
        if n_sets & (n_sets - 1):
            raise ValueError("set count must be a power of two")
        self.n_sets = n_sets
        self.assoc = assoc
        self._set_mask = n_sets - 1
        self._sets: list[list[list]] = [[] for __ in range(n_sets)]

    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """True if the line is present; touches LRU on hit by default."""
        entries = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(entries):
            if entry[0] == line_addr:
                if update_lru and i != len(entries) - 1:
                    entries.append(entries.pop(i))
                return True
        return False

    def fill(self, line_addr: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert a line; returns the evicted ``(line_addr, dirty)`` if any."""
        entries = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(entries):
            if entry[0] == line_addr:
                entry[1] = entry[1] or dirty
                entries.append(entries.pop(i))
                return None
        victim = None
        if len(entries) >= self.assoc:
            old = entries.pop(0)
            victim = (old[0], old[1])
        entries.append([line_addr, dirty])
        return victim

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit if present; returns presence."""
        entries = self._sets[line_addr & self._set_mask]
        for entry in entries:
            if entry[0] == line_addr:
                entry[1] = True
                return True
        return False

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line if present; returns whether it was present."""
        entries = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(entries):
            if entry[0] == line_addr:
                entries.pop(i)
                return True
        return False

    def occupancy(self) -> int:
        """Total lines currently resident (for tests/diagnostics)."""
        return sum(len(entries) for entries in self._sets)
