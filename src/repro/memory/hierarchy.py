"""The conventional memory organization (paper figure 7a).

Four general-purpose memory ports feed the banked L1; scalar loads and
stores, MMX packed loads/stores and MOM stream elements all travel the
same path.  Stream accesses still benefit from the vector memory unit's
line buffering: consecutive unit-stride elements that fall in the same
L1 line are coalesced into one cache transaction.
"""

from __future__ import annotations

from repro.memory.cache import (
    CacheConfig,
    CacheHierarchy,
    InstructionCache,
    L1DataCache,
    L1_DATA,
    L2Cache,
)
from repro.memory.dram import RambusChannel
from repro.memory.interface import AccessType, physical_address

# Enum members as module globals: a global load is several times cheaper
# than ``AccessType.X``, and the warming paths test the kind per call.
_SCALAR_STORE = AccessType.SCALAR_STORE
_VECTOR_STORE = AccessType.VECTOR_STORE


class ConventionalHierarchy(CacheHierarchy):
    """L1 <- L2 <- DRDRAM with 4 shared memory ports."""

    def __init__(
        self,
        n_ports: int = 4,
        l1_config: CacheConfig = L1_DATA,
        dram: RambusChannel | None = None,
        l2: L2Cache | None = None,
    ):
        super().__init__()
        self.dram = dram or (l2.dram if l2 is not None else RambusChannel())
        self.l2 = l2 or L2Cache(self.dram)
        self.l1 = L1DataCache(self.l2, config=l1_config)
        self.icache = InstructionCache(self.l2)
        self._ports = [0] * n_ports
        self.stats.l2 = self.l2.stats
        self._relink_stats()

    # ----- data path ----------------------------------------------------------

    def access(self, thread: int, addr: int, kind: AccessType, now: int) -> int:
        """One L1 transaction; updates L1 stats for a single reference."""
        phys = physical_address(thread, addr)
        # Port acquisition: first free port, first-minimum tie break.
        ports = self._ports
        free = min(ports)
        port = ports.index(free)
        start = now if now > free else free
        ports[port] = start + 1
        if kind is AccessType.SCALAR_STORE or kind is AccessType.VECTOR_STORE:
            done, hit, bank_wait = self.l1.store_line(phys, start)
            if self.observer is not None:
                self.observer.mem_access(
                    "l1", thread, "store", hit, now, done - now
                )
        else:
            done, hit, bank_wait = self.l1.load_line(phys, start)
            # Hit-rate statistics cover loads only: the write-through,
            # no-allocate L1 never "hits" streaming stores by design.
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

    def access_stream(
        self,
        thread: int,
        base: int,
        stride: int,
        count: int,
        kind: AccessType,
        now: int,
    ) -> int:
        """Stream elements coalesce per L1 line (vector line buffering).

        Each distinct line is one port/cache transaction; every element
        mapping to that line completes (and is counted) with it.
        """
        is_store = kind == AccessType.VECTOR_STORE
        line_shift = self.l1._line_shift
        l1_stats = self._l1_stats
        ports = self._ports
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
            free = min(ports)
            port = ports.index(free)
            start = now if now > free else free
            ports[port] = start + 1
            if is_store:
                line_done, hit, bank_wait = self.l1.store_line(phys, start)
            else:
                line_done, hit, bank_wait = self.l1.load_line(phys, start)
                l1_stats.accesses += group
                # Only the leading element of a coalesced group can miss;
                # the rest are line-buffer hits (an MMX loop spreading the
                # same references over time records 1 miss + 3 hits, too).
                l1_stats.hits += group if hit else group - 1
                # Latency is measured from port acquisition: the group's
                # lines are presented to the ports together, so measuring
                # from `now` would count issue queuing as cache latency.
                l1_stats.latency_sum += (line_done - start) * group
            if observer is not None:
                observer.mem_access(
                    "l1", thread,
                    "stream_store" if is_store else "stream_load",
                    hit, start, line_done - start, group,
                )
            self.stats.bank_conflict_cycles += bank_wait
            if line_done > done:
                done = line_done
            index += group
        return done

    # ----- warming-only path (sampled simulation fast-forward) -------------

    def warm(self, thread: int, addr: int, kind: AccessType) -> None:
        """Tag/replacement update matching :meth:`access`, no timing.

        Loads allocate in L1 (filling from — and therefore also warming —
        L2); stores follow the write-through no-allocate policy: they
        touch an existing L1 line's LRU position and otherwise leave the
        tags alone (the detailed store path never reads L2 either — the
        write buffer drain is timing-only).
        """
        phys = physical_address(thread, addr)
        l1 = self.l1
        line = phys >> l1._line_shift
        tags = l1.tags
        entries = tags._sets[line & tags._set_mask]
        for entry in entries:
            if entry[0] == line:
                if entry is not entries[-1]:
                    entries.remove(entry)
                    entries.append(entry)
                return
        if kind is _SCALAR_STORE or kind is _VECTOR_STORE:
            return
        if len(entries) >= tags.assoc:
            del entries[0]
        entries.append([line, False])
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

    def warm_stream(
        self, thread: int, base: int, stride: int, count: int, kind: AccessType
    ) -> None:
        """Per-L1-line coalesced warming, mirroring :meth:`access_stream`."""
        is_store = kind is _VECTOR_STORE
        l1 = self.l1
        line_shift = l1._line_shift
        sets = l1.tags._sets
        set_mask = l1.tags._set_mask
        assoc = l1.tags.assoc
        l2 = self.l2
        l2_shift = l2._line_shift
        l2_sets = l2.tags._sets
        l2_mask = l2.tags._set_mask
        l2_assoc = l2.tags.assoc
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
            line = phys >> line_shift
            entries = sets[line & set_mask]
            for entry in entries:
                if entry[0] == line:
                    if entry is not entries[-1]:
                        entries.remove(entry)
                        entries.append(entry)
                    break
            else:
                if is_store:
                    continue
                if len(entries) >= assoc:
                    del entries[0]
                entries.append([line, False])
                line = phys >> l2_shift
                entries = l2_sets[line & l2_mask]
                for entry in entries:
                    if entry[0] == line:
                        entries.remove(entry)
                        entries.append(entry)
                        break
                else:
                    if len(entries) >= l2_assoc:
                        del entries[0]
                    entries.append([line, False])

    # ----- instruction path -------------------------------------------------------

    def fetch(self, thread: int, pc: int, now: int) -> int:
        # The I-cache hit path, inlined from InstructionCache.fetch_line
        # (one call per fetch group makes this the hottest memory entry
        # point); the rare miss path stays delegated to the cache model.
        icache = self.icache
        stats = self._icache_stats
        stats.accesses += 1
        addr = physical_address(thread, pc)
        line = addr >> icache._line_shift
        bank = line & icache._bank_mask
        bank_free = icache._bank_free
        latency = icache._latency
        if bank_free[bank] > now:
            # Busy bank: the probe retries without consuming the bank.
            done = bank_free[bank] + latency
            stats.hits += 1
            stats.latency_sum += done - now
            if self.observer is not None:
                self.observer.mem_access(
                    "icache", thread, "fetch", True, now, done - now
                )
            return done
        bank_free[bank] = now + 1
        tags = icache.tags
        entries = tags._sets[line & tags._set_mask]
        last = len(entries) - 1
        for i in range(last + 1):
            if entries[i][0] == line:
                if i != last:
                    entries.append(entries.pop(i))
                done = now + latency
                fill = icache.mshr._pending.get(line)
                if fill is not None and fill > now and fill + latency > done:
                    done = fill + latency
                stats.hits += 1
                stats.latency_sum += done - now
                if self.observer is not None:
                    self.observer.mem_access(
                        "icache", thread, "fetch", True, now, done - now
                    )
                return done
        # Miss: merge with or allocate an outstanding fill.
        mshr = icache.mshr
        fill = mshr._pending.get(line)
        if fill is not None and fill > now:
            done = fill if fill > now + latency else now + latency
        else:
            start = max(now, mshr.earliest_free(now))
            fill = icache.l2.access(addr, start + latency)
            mshr.allocate(line, fill, start)
            tags.fill(line)
            done = fill + latency
        stats.latency_sum += done - now
        if self.observer is not None:
            self.observer.mem_access(
                "icache", thread, "fetch", False, now, done - now
            )
        return done
