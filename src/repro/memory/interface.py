"""Shared types and the abstract interface of the memory models.

The SMT core calls the memory system at issue time of each memory
operation and at fetch time for instruction groups; the system returns
the cycle the access completes.  All models are *timestamp-based*: ports,
banks and channels are modeled as next-free-cycle counters, which lets a
cycle-level core interact with the hierarchy without event queues.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache


class AccessType(enum.Enum):
    """How an access enters the hierarchy (drives port routing)."""

    SCALAR_LOAD = "scalar_load"
    SCALAR_STORE = "scalar_store"
    VECTOR_LOAD = "vector_load"       # MOM stream element loads
    VECTOR_STORE = "vector_store"
    INST_FETCH = "inst_fetch"


@dataclass
class CacheStats:
    """Hit/miss/latency accounting for one cache."""

    accesses: int = 0
    hits: int = 0
    latency_sum: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.accesses if self.accesses else 0.0


@dataclass
class MemoryStats:
    """Aggregate statistics a memory system reports after a run."""

    icache: CacheStats = field(default_factory=CacheStats)
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dram_accesses: int = 0
    bank_conflict_cycles: int = 0
    write_buffer_stalls: int = 0
    coherence_invalidations: int = 0


class MemorySystem:
    """Interface the SMT core programs against."""

    def __init__(self):
        self.stats = MemoryStats()
        #: Optional :class:`repro.verify.sanitizer.RuntimeSanitizer`.
        self.sanitizer = None
        #: Optional :class:`repro.obs.events.PipelineObserver`.
        self.observer = None

    def attach_sanitizer(self, sanitizer) -> None:
        """Hook a runtime sanitizer into this hierarchy's components.

        Walks the conventional attribute names (``l1``, ``l2``,
        ``icache``) and attaches to any MSHR files and write buffers
        found, so every concrete hierarchy gets invariant checking
        without bespoke wiring.  Models without those structures (e.g.
        the perfect memory) simply record the sanitizer.
        """
        self.sanitizer = sanitizer
        for name in ("l1", "l2", "icache"):
            cache = getattr(self, name, None)
            if cache is None:
                continue
            mshr = getattr(cache, "mshr", None)
            if mshr is not None:
                mshr.sanitizer = sanitizer
            buffer = getattr(cache, "write_buffer", None)
            if buffer is not None:
                buffer.sanitizer = sanitizer

    def attach_observer(self, observer) -> None:
        """Hook a pipeline observer into this hierarchy's components.

        Same conventional-attribute walk as :meth:`attach_sanitizer`:
        the hierarchy itself emits the L1/I-cache/stream-bypass events,
        while the shared L2, the MSHR files and the write buffers carry
        their own observer reference (MSHRs additionally learn which
        cache they serve, for the event component name).  Models without
        those structures simply record the observer.
        """
        self.observer = observer
        for name in ("l1", "l2", "icache"):
            cache = getattr(self, name, None)
            if cache is None:
                continue
            if hasattr(cache, "observer"):
                cache.observer = observer
            mshr = getattr(cache, "mshr", None)
            if mshr is not None:
                mshr.observer = observer
                mshr.obs_name = f"{name}.mshr"
            buffer = getattr(cache, "write_buffer", None)
            if buffer is not None:
                buffer.observer = observer

    def access(
        self, thread: int, addr: int, kind: AccessType, now: int
    ) -> int:
        """Perform one data access; returns its completion cycle (> now)."""
        raise NotImplementedError

    def access_stream(
        self,
        thread: int,
        base: int,
        stride: int,
        count: int,
        kind: AccessType,
        now: int,
    ) -> int:
        """Perform a MOM stream access of ``count`` elements.

        Default implementation issues elements back to back through the
        vector path, as many per cycle as the ports allow, and completes
        when the last element returns.
        """
        done = now + 1
        for i in range(count):
            element_done = self.access(thread, base + i * stride, kind, now)
            if element_done > done:
                done = element_done
        return done

    def fetch(self, thread: int, pc: int, now: int) -> int:
        """Instruction-cache access for a fetch group; completion cycle."""
        raise NotImplementedError

    # ----- warming-only path (sampled simulation fast-forward) -------------

    def warm(self, thread: int, addr: int, kind: AccessType) -> None:
        """Warming-only data access: update tags/replacement, no timing.

        The sampled-simulation fast-forward drives cache state through
        this path so the detailed measurement windows start with a warm
        hierarchy.  Implementations update exactly the state the
        detailed path would (tag residency, LRU order, the decoupled
        exclusive-bit rule) while skipping ports, banks, MSHR timing and
        all statistics counters.  The stateless default (perfect memory)
        is a no-op.
        """

    def warm_stream(
        self, thread: int, base: int, stride: int, count: int, kind: AccessType
    ) -> None:
        """Warming-only MOM stream access (see :meth:`warm`)."""

    def warm_fetch(self, thread: int, pc: int) -> None:
        """Warming-only instruction fetch (see :meth:`warm`)."""

    def reset_stats(self) -> None:
        """Zero all counters (warmup boundary); tag state is preserved."""
        self.stats = MemoryStats()


#: Per-thread physical page colouring: a multiplicative hash of the
#: virtual page number and thread id models the OS page mapper, so that
#: identical virtual layouts of different contexts collide realistically
#: (not pathologically) in physically-indexed caches.
PAGE_BITS = 12
_PFN_SPACE_BITS = 22          # 16 GB of physical address space (keeps the
                              # hash collision rate between pages negligible)


@lru_cache(maxsize=1 << 18)
def physical_address(thread: int, addr: int) -> int:
    """Translate a (thread, virtual address) pair to a physical address.

    A plain multiplicative hash preserves the trailing zeros of
    power-of-two region bases and maps every region onto the same page
    colour; the splitmix64 finalizer below avalanches fully instead.
    The function is pure, and working sets repeat addresses heavily, so
    the translation is memoized.
    """
    offset = addr & ((1 << PAGE_BITS) - 1)
    vpn = addr >> PAGE_BITS
    mask64 = (1 << 64) - 1
    # splitmix64 finalizer: full avalanche, so low pfn bits (the cache
    # page colour) are well mixed even for tiny or power-of-two vpns.
    z = (vpn * 0x9E3779B97F4A7C15 + thread * 0x2545F4914F6CDD1D) & mask64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
    z ^= z >> 31
    pfn = z & ((1 << _PFN_SPACE_BITS) - 1)
    return (pfn << PAGE_BITS) | offset
