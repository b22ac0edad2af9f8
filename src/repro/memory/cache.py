"""Timing cache models: L1 data, instruction cache, unified L2.

Timestamp-based models: every structural resource (bank, MSHR entry,
write-buffer slot, DRAM channel) is a next-free-cycle counter, so an
access computes its completion cycle in one call.  Tag state is updated
eagerly at miss time (the timing effect of the fill in flight is carried
by the MSHR), which is the standard approximation in trace-driven cache
simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.dram import RambusChannel
from repro.memory.interface import (
    CacheStats,
    MemoryStats,
    MemorySystem,
    physical_address,
)
from repro.memory.mshr import MshrFile
from repro.memory.sram import TagArray
from repro.memory.writebuffer import WriteBuffer


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size: int
    assoc: int
    line: int
    banks: int
    latency: int
    mshrs: int = 8

    @property
    def n_sets(self) -> int:
        return self.size // (self.line * self.assoc)

    @property
    def line_shift(self) -> int:
        return self.line.bit_length() - 1

    def __post_init__(self):
        if self.size % (self.line * self.assoc):
            raise ValueError(f"{self.name}: size not divisible into sets")
        if self.line & (self.line - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.banks & (self.banks - 1):
            raise ValueError(f"{self.name}: bank count must be a power of two")


#: Paper section 3 cache parameters.
L1_DATA = CacheConfig("L1D", size=32 << 10, assoc=1, line=32, banks=8, latency=1)
L1_INST = CacheConfig("I1", size=64 << 10, assoc=2, line=32, banks=4, latency=1)
L2_UNIFIED = CacheConfig(
    "L2", size=1 << 20, assoc=2, line=128, banks=2, latency=12
)


class L2Cache:
    """Unified on-chip L2: write-back, banked, backed by the DRDRAM channel."""

    #: Cycles a bank is held per access (128-byte line movement).
    BANK_OCCUPANCY = 4

    def __init__(self, dram: RambusChannel, config: CacheConfig = L2_UNIFIED):
        self.config = config
        self.dram = dram
        self.tags = TagArray(config.n_sets, config.assoc)
        self.stats = CacheStats()
        self._bank_free = [0] * config.banks
        self.mshr = MshrFile(config.mshrs)
        #: Optional :class:`repro.obs.events.PipelineObserver` — set by
        #: :meth:`repro.memory.interface.MemorySystem.attach_observer`.
        #: L2 transactions carry no requester context (thread ``-1``).
        self.observer = None
        # Hot-path constants (config is frozen; line_shift is a property).
        self._line_shift = config.line_shift
        self._latency = config.latency
        self._bank_mask = config.banks - 1
        self._line_bytes = config.line

    def access(self, addr: int, now: int, is_store: bool = False) -> int:
        """Read or write one line; returns data-available cycle."""
        line = addr >> self._line_shift
        # Bank acquisition, inlined (one call per simulated L2 reference).
        bank = line & self._bank_mask
        bank_free = self._bank_free
        start = now if now > bank_free[bank] else bank_free[bank]
        bank_free[bank] = start + self.BANK_OCCUPANCY
        stats = self.stats
        tags = self.tags
        mshr = self.mshr
        latency = self._latency
        stats.accesses += 1
        if tags.lookup(line):
            if is_store:
                tags.mark_dirty(line)
            stats.hits += 1
            done = start + latency
            # Tags are updated eagerly at miss time; data of a line whose
            # fill is still in flight is not available before the fill.
            pending = mshr.pending_fill(line, start)
            if pending is not None and pending > done:
                done = pending
            stats.latency_sum += done - now
            if self.observer is not None:
                self.observer.mem_access(
                    "l2", -1, "store" if is_store else "load",
                    True, now, done - now,
                )
            return done
        # Miss: merge with an in-flight fill when possible.
        pending = mshr.pending_fill(line, start)
        if pending is not None:
            done = max(pending, start + latency)
            stats.latency_sum += done - now
            if is_store:
                tags.mark_dirty(line)
            if self.observer is not None:
                self.observer.mem_access(
                    "l2", -1, "store" if is_store else "load",
                    False, now, done - now,
                )
            return done
        start = max(start, mshr.earliest_free(start))
        fill = self.dram.access(start + latency, self._line_bytes)
        mshr.allocate(line, fill, start)
        victim = tags.fill(line, dirty=is_store)
        if victim is not None and victim[1]:
            # Dirty write-back consumes channel bandwidth.
            self.dram.access(fill, self._line_bytes)
        stats.latency_sum += fill - now
        if self.observer is not None:
            self.observer.mem_access(
                "l2", -1, "store" if is_store else "load",
                False, now, fill - now,
            )
        return fill

    def invalidate(self, addr: int) -> bool:
        return self.tags.invalidate(addr >> self.config.line_shift)


class L1DataCache:
    """32 KB direct-mapped write-through L1 with MSHRs and write buffer."""

    def __init__(self, l2: L2Cache, config: CacheConfig = L1_DATA):
        self.config = config
        self.l2 = l2
        self.tags = TagArray(config.n_sets, config.assoc)
        self.mshr = MshrFile(config.mshrs)
        self.write_buffer = WriteBuffer()
        self._bank_free = [0] * config.banks
        self._line_shift = config.line_shift
        self._latency = config.latency
        self._bank_mask = config.banks - 1

    def _line_of(self, addr: int) -> int:
        return addr >> self.config.line_shift

    def load_line(self, addr: int, now: int) -> tuple[int, bool, int]:
        """Read the line containing ``addr``.

        Returns ``(data_ready_cycle, hit, bank_wait_cycles)``.
        """
        line = addr >> self._line_shift
        # Bank acquisition, tag lookup and MSHR probe inlined (hot path);
        # the logic mirrors TagArray.lookup / MshrFile.pending_fill.
        bank = line & self._bank_mask
        bank_free = self._bank_free
        start = now if now > bank_free[bank] else bank_free[bank]
        bank_free[bank] = start + 1
        bank_wait = start - now
        latency = self._latency
        mshr = self.mshr
        tags = self.tags
        entries = tags._sets[line & tags._set_mask]
        hit = False
        last = len(entries) - 1
        for i in range(last + 1):
            if entries[i][0] == line:
                if i != last:
                    entries.append(entries.pop(i))
                hit = True
                break
        if hit:
            done = start + latency
            fill = mshr._pending.get(line)
            if fill is not None and fill > start:
                # The line was allocated eagerly by an earlier miss; its
                # data arrives with the in-flight fill.
                if fill + latency > done:
                    done = fill + latency
            return done, True, bank_wait
        # Selective flush: a buffered store to this line must drain first.
        start = self.write_buffer.flush_line(line, start)
        pending = mshr.pending_fill(line, start)
        if pending is not None:
            return max(pending, start + latency), False, bank_wait
        start = max(start, mshr.earliest_free(start))
        fill = self.l2.access(addr, start + latency)
        mshr.allocate(line, fill, start)
        self.tags.fill(line)
        return fill + latency, False, bank_wait

    def store_line(self, addr: int, now: int) -> tuple[int, bool, int]:
        """Write through ``addr``; returns ``(done, hit, bank_wait)``.

        Write-through, no-allocate: a store hit updates the line, a miss
        does not allocate; either way the store enters the coalescing
        write buffer, which is where a full buffer back-pressures.
        """
        line = addr >> self._line_shift
        bank = line & self._bank_mask
        bank_free = self._bank_free
        start = now if now > bank_free[bank] else bank_free[bank]
        bank_free[bank] = start + 1
        bank_wait = start - now
        tags = self.tags
        entries = tags._sets[line & tags._set_mask]
        hit = False
        last = len(entries) - 1
        for i in range(last + 1):
            if entries[i][0] == line:
                if i != last:
                    entries.append(entries.pop(i))
                hit = True
                break
        accept = self.write_buffer.push(line, start)
        return max(start, accept) + self._latency, hit, bank_wait

    def invalidate(self, addr: int) -> bool:
        return self.tags.invalidate(self._line_of(addr))

    def contains(self, addr: int) -> bool:
        return self.tags.lookup(self._line_of(addr), update_lru=False)


class InstructionCache:
    """64 KB two-way I-cache; misses fill from L2."""

    def __init__(self, l2: L2Cache, config: CacheConfig = L1_INST):
        self.config = config
        self.l2 = l2
        self.tags = TagArray(config.n_sets, config.assoc)
        self.mshr = MshrFile(4)
        self._bank_free = [0] * config.banks
        self._line_shift = config.line_shift
        self._latency = config.latency
        self._bank_mask = config.banks - 1

    def fetch_line(self, addr: int, now: int) -> tuple[int, bool]:
        """Fetch the line holding ``addr``; returns ``(ready, hit)``.

        A probe that finds its bank busy returns the retry cycle *without*
        consuming the bank — otherwise several threads camped on one bank
        would book it against each other's retries and livelock the fetch
        engine.
        """
        line = addr >> self._line_shift
        bank = line & self._bank_mask
        bank_free = self._bank_free
        latency = self._latency
        if bank_free[bank] > now:
            return bank_free[bank] + latency, True
        bank_free[bank] = now + 1
        mshr = self.mshr
        # Tag lookup and MSHR probe inlined (hot path); mirrors
        # TagArray.lookup / MshrFile.pending_fill.
        tags = self.tags
        entries = tags._sets[line & tags._set_mask]
        hit = False
        last = len(entries) - 1
        for i in range(last + 1):
            if entries[i][0] == line:
                if i != last:
                    entries.append(entries.pop(i))
                hit = True
                break
        if hit:
            done = now + latency
            fill = mshr._pending.get(line)
            if fill is not None and fill > now and fill + latency > done:
                done = fill + latency
            return done, True
        pending = mshr.pending_fill(line, now)
        if pending is not None:
            return max(pending, now + latency), False
        start = max(now, mshr.earliest_free(now))
        fill = self.l2.access(addr, start + latency)
        mshr.allocate(line, fill, start)
        self.tags.fill(line)
        return fill + latency, False


class CacheHierarchy(MemorySystem):
    """What the two cache organizations share, defined once.

    A subclass builds ``l1``, ``icache`` and ``l2`` (one I-cache design
    serves both organizations) and calls :meth:`_relink_stats`.  The
    warming paths index the tag arrays' set lists inline, with
    :class:`TagArray`'s lookup/fill logic, because the sampled
    fast-forward calls one of them for every eventful instruction.
    """

    def _relink_stats(self) -> None:
        """Refresh the hot-path references into the stats container.

        ``stats`` is replaced wholesale at the warmup boundary
        (:meth:`reset_stats`), so the per-access code paths read these
        cached references instead of chasing two attributes per counter.
        """
        self._l1_stats = self.stats.l1
        self._icache_stats = self.stats.icache

    def reset_stats(self) -> None:
        self.stats = MemoryStats()
        self.l2.stats = CacheStats()
        self.stats.l2 = self.l2.stats
        self._relink_stats()
        self.write_buffer_reset()

    def write_buffer_reset(self) -> None:
        self.l1.write_buffer.coalesced = 0
        self.l1.write_buffer.full_stalls = 0

    def warm_fetch(self, thread: int, pc: int) -> None:
        """I-cache tag warming matching :meth:`fetch` (fills from L2)."""
        phys = physical_address(thread, pc)
        icache = self.icache
        line = phys >> icache._line_shift
        tags = icache.tags
        entries = tags._sets[line & tags._set_mask]
        for entry in entries:
            if entry[0] == line:
                if entry is not entries[-1]:
                    entries.remove(entry)
                    entries.append(entry)
                return
        if len(entries) >= tags.assoc:
            del entries[0]
        entries.append([line, False])
        # The miss fills from L2: touch its line, or allocate it.
        l2 = self.l2
        line = phys >> l2._line_shift
        tags = l2.tags
        entries = tags._sets[line & tags._set_mask]
        for entry in entries:
            if entry[0] == line:
                entries.remove(entry)
                entries.append(entry)
                return
        if len(entries) >= tags.assoc:
            del entries[0]
        entries.append([line, False])
