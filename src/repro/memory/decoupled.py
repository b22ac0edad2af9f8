"""The decoupled memory organization (paper figure 7b and section 5.4).

Scalar and vector working sets are decoupled: two scalar ports access the
L1 (single-banked, double-pumped as in the Alpha 21264), while two vector
ports connect straight to the two L2 banks through a crossbar — stream
accesses bypass L1 entirely.  This (a) separates the stream working set
from the scalar one, and (b) halves the ports per cache level, cutting
bank contention.

Bypassing creates a coherence problem between vector and scalar copies of
a line, solved as in the paper's reference [21] with an exclusive-bit
policy: a stream access to a line resident in L1 invalidates the L1 copy
(after draining any buffered store to it) before proceeding.
"""

from __future__ import annotations

from repro.memory.cache import (
    CacheConfig,
    CacheHierarchy,
    InstructionCache,
    L1DataCache,
    L2Cache,
)
from repro.memory.dram import RambusChannel
from repro.memory.interface import AccessType, physical_address

#: L1 in the decoupled organization: same 32 KB direct-mapped cache, but
#: single-banked and double-pumped — two scalar accesses per cycle.
L1_DECOUPLED = CacheConfig(
    "L1D", size=32 << 10, assoc=1, line=32, banks=2, latency=1
)

#: Extra cycles an exclusive-bit invalidation adds to a vector access.
INVALIDATION_PENALTY = 2

# Enum members as module globals for the warming paths (see hierarchy.py).
_SCALAR_STORE = AccessType.SCALAR_STORE
_VECTOR_LOAD = AccessType.VECTOR_LOAD
_VECTOR_STORE = AccessType.VECTOR_STORE


class DecoupledHierarchy(CacheHierarchy):
    """Scalar ports -> L1 -> L2; vector ports -> L2 directly."""

    def __init__(
        self,
        n_scalar_ports: int = 2,
        n_vector_ports: int = 2,
        dram: RambusChannel | None = None,
        l2: L2Cache | None = None,
    ):
        super().__init__()
        # An injected l2 is shared (CMP cores over one system L2); the
        # default builds a private one, as ConventionalHierarchy does.
        self.dram = dram or (l2.dram if l2 is not None else RambusChannel())
        self.l2 = l2 or L2Cache(self.dram)
        self.l1 = L1DataCache(self.l2, config=L1_DECOUPLED)
        self.icache = InstructionCache(self.l2)
        self._scalar_ports = [0] * n_scalar_ports
        self._vector_ports = [0] * n_vector_ports
        self.stats.l2 = self.l2.stats
        self._relink_stats()

    @staticmethod
    def _acquire(ports: list[int], now: int) -> int:
        best = 0
        for i in range(1, len(ports)):
            if ports[i] < ports[best]:
                best = i
        start = max(now, ports[best])
        ports[best] = start + 1
        return start

    # ----- scalar path (through L1) ------------------------------------------

    def access(self, thread: int, addr: int, kind: AccessType, now: int) -> int:
        if kind in (AccessType.VECTOR_LOAD, AccessType.VECTOR_STORE):
            return self._vector_access(thread, addr, kind, now)
        phys = physical_address(thread, addr)
        start = self._acquire(self._scalar_ports, now)
        if kind == AccessType.SCALAR_STORE:
            done, hit, bank_wait = self.l1.store_line(phys, start)
            if self.observer is not None:
                self.observer.mem_access(
                    "l1", thread, "store", hit, now, done - now
                )
        else:
            done, hit, bank_wait = self.l1.load_line(phys, start)
            # Loads only: the write-through L1 does not allocate on stores.
            l1_stats = self._l1_stats
            l1_stats.accesses += 1
            if hit:
                l1_stats.hits += 1
            l1_stats.latency_sum += done - now
            if self.observer is not None:
                self.observer.mem_access(
                    "l1", thread, "load", hit, now, done - now
                )
        self.stats.bank_conflict_cycles += bank_wait
        return done

    # ----- vector path (straight to L2) ----------------------------------------

    def _vector_access(
        self, thread: int, addr: int, kind: AccessType, now: int
    ) -> int:
        phys = physical_address(thread, addr)
        start = self._acquire(self._vector_ports, now)
        start = self._coherence_check(phys, start, thread)
        if self.sanitizer is not None:
            self.sanitizer.check_stream_bypass(self.l1, phys)
        is_store = kind == AccessType.VECTOR_STORE
        done = self.l2.access(phys, start, is_store=is_store)
        # Vector references are counted in the L1 row of the statistics as
        # bypassing accesses: they neither hit nor miss L1; the paper's
        # Table 4 reports L1 behaviour of the *scalar* stream only under
        # the decoupled organization, so we keep them out of L1 stats.
        if self.observer is not None:
            # hit=None: the bypass port does not see the L2 tag outcome
            # (the L2's own observer hook records hit/miss, thread -1).
            self.observer.mem_access(
                "stream_bypass", thread,
                "store" if is_store else "load",
                None, now, done - now,
            )
        return done

    def _coherence_check(self, phys: int, now: int, thread: int = -1) -> int:
        """Exclusive-bit policy: evict a scalar-owned copy before streaming."""
        if self.l1.contains(phys):
            drained = self.l1.write_buffer.flush_line(
                phys >> self.l1._line_shift, now
            )
            self.l1.invalidate(phys)
            self.stats.coherence_invalidations += 1
            if self.observer is not None:
                self.observer.mem_note(
                    "stream_bypass", "invalidation", thread, now
                )
            return drained + INVALIDATION_PENALTY
        return now

    def access_stream(
        self,
        thread: int,
        base: int,
        stride: int,
        count: int,
        kind: AccessType,
        now: int,
    ) -> int:
        """Stream elements coalesce per 128-byte L2 line at the L2 banks."""
        line_shift = self.l2._line_shift
        is_store = kind == AccessType.VECTOR_STORE
        observer = self.observer
        done = now + 1
        index = 0
        while index < count:
            addr = base + index * stride
            line = addr >> line_shift
            group = 1
            while (
                index + group < count
                and (base + (index + group) * stride) >> line_shift == line
            ):
                group += 1
            phys = physical_address(thread, addr)
            start = self._acquire(self._vector_ports, now)
            start = self._coherence_check(phys, start, thread)
            if self.sanitizer is not None:
                self.sanitizer.check_stream_bypass(self.l1, phys)
            line_done = self.l2.access(phys, start, is_store=is_store)
            if observer is not None:
                observer.mem_access(
                    "stream_bypass", thread,
                    "stream_store" if is_store else "stream_load",
                    None, start, line_done - start, group,
                )
            if line_done > done:
                done = line_done
            index += group
        return done

    # ----- warming-only path (sampled simulation fast-forward) -------------

    def warm(self, thread: int, addr: int, kind: AccessType) -> None:
        """Tag/replacement update matching :meth:`access`, no timing.

        Scalar references follow the conventional L1 policy (loads
        allocate and warm L2, stores touch LRU only); vector references
        bypass to L2 and apply the exclusive-bit invalidation the
        detailed path enforces — the coherence-state side of sampling
        must stay faithful or the sanitizer's stream-bypass rule breaks
        in the first detailed window.  Like all statistics, the
        invalidation counter is not touched.
        """
        phys = physical_address(thread, addr)
        l1 = self.l1
        line = phys >> l1._line_shift
        tags = l1.tags
        entries = tags._sets[line & tags._set_mask]
        if kind is _VECTOR_LOAD or kind is _VECTOR_STORE:
            for entry in entries:
                if entry[0] == line:
                    entries.remove(entry)
                    break
            dirty = kind is _VECTOR_STORE
        else:
            for entry in entries:
                if entry[0] == line:
                    if entry is not entries[-1]:
                        entries.remove(entry)
                        entries.append(entry)
                    return
            if kind is _SCALAR_STORE:
                return
            if len(entries) >= tags.assoc:
                del entries[0]
            entries.append([line, False])
            dirty = False
        l2 = self.l2
        line = phys >> l2._line_shift
        tags = l2.tags
        entries = tags._sets[line & tags._set_mask]
        for entry in entries:
            if entry[0] == line:
                entries.remove(entry)
                if dirty:
                    entry[1] = True
                entries.append(entry)
                return
        if len(entries) >= tags.assoc:
            del entries[0]
        entries.append([line, dirty])

    def warm_stream(
        self, thread: int, base: int, stride: int, count: int, kind: AccessType
    ) -> None:
        """Per-L2-line coalesced warming, mirroring :meth:`access_stream`:
        each line drops a scalar L1 copy (exclusive bit) and touches or
        allocates its L2 line."""
        dirty = kind is _VECTOR_STORE
        l1 = self.l1
        l1_shift = l1._line_shift
        l1_sets = l1.tags._sets
        l1_mask = l1.tags._set_mask
        l2 = self.l2
        line_shift = l2._line_shift
        sets = l2.tags._sets
        set_mask = l2.tags._set_mask
        assoc = l2.tags.assoc
        index = 0
        while index < count:
            addr = base + index * stride
            line = addr >> line_shift
            group = 1
            while (
                index + group < count
                and (base + (index + group) * stride) >> line_shift == line
            ):
                group += 1
            index += group
            phys = physical_address(thread, addr)
            line = phys >> l1_shift
            entries = l1_sets[line & l1_mask]
            for entry in entries:
                if entry[0] == line:
                    entries.remove(entry)
                    break
            line = phys >> line_shift
            entries = sets[line & set_mask]
            for entry in entries:
                if entry[0] == line:
                    entries.remove(entry)
                    if dirty:
                        entry[1] = True
                    entries.append(entry)
                    break
            else:
                if len(entries) >= assoc:
                    del entries[0]
                entries.append([line, dirty])

    # ----- instruction path ------------------------------------------------------

    def fetch(self, thread: int, pc: int, now: int) -> int:
        done, hit = self.icache.fetch_line(physical_address(thread, pc), now)
        icache_stats = self._icache_stats
        icache_stats.accesses += 1
        if hit:
            icache_stats.hits += 1
        icache_stats.latency_sum += done - now
        if self.observer is not None:
            self.observer.mem_access(
                "icache", thread, "fetch", hit, now, done - now
            )
        return done
