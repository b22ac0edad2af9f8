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
    InstructionCache,
    L1DataCache,
    L1_DATA,
    L2Cache,
)
from repro.memory.dram import RambusChannel
from repro.memory.interface import (
    AccessType,
    MemorySystem,
    physical_address,
)


class ConventionalHierarchy(MemorySystem):
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
        # Expose sub-cache statistics through the common container.
        self.stats.l2 = self.l2.stats
        self.stats.icache = self.icache.stats
        self._relink_stats()

    def _relink_stats(self) -> None:
        """Refresh the hot-path references into the stats container.

        ``stats`` is replaced wholesale at the warmup boundary
        (:meth:`reset_stats`), so the per-access code paths read these
        cached references instead of chasing two attributes per counter.
        """
        self._l1_stats = self.stats.l1
        self._icache_stats = self.stats.icache

    # ----- ports -----------------------------------------------------------

    def _acquire_port(self, now: int) -> int:
        best = 0
        for i in range(1, len(self._ports)):
            if self._ports[i] < self._ports[best]:
                best = i
        start = max(now, self._ports[best])
        self._ports[best] = start + 1
        return start

    # ----- data path ----------------------------------------------------------

    def access(self, thread: int, addr: int, kind: AccessType, now: int) -> int:
        """One L1 transaction; updates L1 stats for a single reference."""
        phys = physical_address(thread, addr)
        # Port acquisition, inlined (``_acquire_port`` kept for reference):
        # first free port, first-minimum tie break.
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

    def _warm_l2(self, phys: int, dirty: bool = False) -> None:
        """Touch (or fill) the L2 line holding ``phys``; timing-free."""
        self.l2.tags.fill(phys >> self.l2._line_shift, dirty=dirty)

    def warm(self, thread: int, addr: int, kind: AccessType) -> None:
        """Tag/replacement update matching :meth:`access`, no timing.

        Loads allocate in L1 (filling from — and therefore also warming —
        L2); stores follow the write-through no-allocate policy: they
        touch an existing L1 line's LRU position and otherwise leave the
        tags alone (the detailed store path never reads L2 either — the
        write buffer drain is timing-only).
        """
        phys = physical_address(thread, addr)
        line = phys >> self.l1._line_shift
        tags = self.l1.tags
        if kind is AccessType.SCALAR_STORE or kind is AccessType.VECTOR_STORE:
            tags.lookup(line)
            return
        if not tags.lookup(line):
            tags.fill(line)
            self._warm_l2(phys)

    def warm_stream(
        self, thread: int, base: int, stride: int, count: int, kind: AccessType
    ) -> None:
        """Per-L1-line coalesced warming, mirroring :meth:`access_stream`."""
        is_store = kind is AccessType.VECTOR_STORE
        line_shift = self.l1._line_shift
        tags = self.l1.tags
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
            phys_line = phys >> line_shift
            if is_store:
                tags.lookup(phys_line)
            elif not tags.lookup(phys_line):
                tags.fill(phys_line)
                self._warm_l2(phys)
            index += group

    def warm_fetch(self, thread: int, pc: int) -> None:
        """I-cache tag warming matching :meth:`fetch` (fills from L2)."""
        phys = physical_address(thread, pc)
        tags = self.icache.tags
        line = phys >> self.icache._line_shift
        if not tags.lookup(line):
            tags.fill(line)
            self._warm_l2(phys)

    def reset_stats(self) -> None:
        from repro.memory.interface import CacheStats, MemoryStats

        self.stats = MemoryStats()
        self.l2.stats = CacheStats()
        self.stats.l2 = self.l2.stats
        self._relink_stats()
        self.write_buffer_reset()

    def write_buffer_reset(self) -> None:
        self.l1.write_buffer.coalesced = 0
        self.l1.write_buffer.full_stalls = 0

    def reset(self) -> None:
        """Rebuild as freshly constructed, keeping geometry and hooks.

        Tag arrays, MSHRs, bank/port timestamps and the DRAM channel all
        carry absolute-time residue, so the only faithful reset is a
        re-run of ``__init__`` with the same geometry; the attached
        sanitizer/observer survive the rebuild.
        """
        sanitizer = self.sanitizer
        observer = self.observer
        dram = RambusChannel(
            latency=self.dram.latency,
            bytes_per_cycle=self.dram.bytes_per_cycle,
        )
        self.__init__(
            n_ports=len(self._ports),
            l1_config=self.l1.config,
            dram=dram,
            l2=L2Cache(dram, config=self.l2.config),
        )
        if sanitizer is not None:
            self.attach_sanitizer(sanitizer)
        if observer is not None:
            self.attach_observer(observer)

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
