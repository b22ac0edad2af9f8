"""Integration tests for the cache hierarchies and address translation."""

import pytest

from repro.memory import (
    ConventionalHierarchy,
    DecoupledHierarchy,
    PerfectMemory,
)
from repro.memory.cache import CacheConfig, L1_DATA, L1_INST, L2_UNIFIED
from repro.memory.interface import AccessType as AT, physical_address


class TestPaperGeometry:
    def test_l1_is_32k_direct_mapped(self):
        assert L1_DATA.size == 32 << 10
        assert L1_DATA.assoc == 1
        assert L1_DATA.line == 32
        assert L1_DATA.banks == 8
        assert L1_DATA.latency == 1

    def test_icache_is_64k_two_way(self):
        assert L1_INST.size == 64 << 10
        assert L1_INST.assoc == 2
        assert L1_INST.banks == 4

    def test_l2_is_1m_two_way_12_cycles(self):
        assert L2_UNIFIED.size == 1 << 20
        assert L2_UNIFIED.assoc == 2
        assert L2_UNIFIED.line == 128
        assert L2_UNIFIED.latency == 12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", size=1000, assoc=1, line=32, banks=1, latency=1)
        with pytest.raises(ValueError):
            CacheConfig("bad", size=1024, assoc=1, line=48, banks=1, latency=1)


class TestPhysicalAddress:
    def test_offset_preserved(self):
        phys = physical_address(0, 0x12345)
        assert phys & 0xFFF == 0x345

    def test_deterministic(self):
        assert physical_address(3, 0x1000) == physical_address(3, 0x1000)

    def test_threads_get_distinct_mappings(self):
        pages = {physical_address(t, 0x100000) >> 12 for t in range(8)}
        assert len(pages) == 8

    def test_power_of_two_bases_get_distinct_colors(self):
        # Regression: the hash must not map power-of-two region bases all
        # onto the same L1 page colour (bits 12..14 of the physical addr).
        bases = [0x0100_0000, 0x0200_0000, 0x0300_0000, 0x1000_0000,
                 0x1100_0000, 0x1200_0000]
        colors = {(physical_address(0, b) >> 12) & 7 for b in bases}
        assert len(colors) >= 3


class TestPerfectMemory:
    def test_always_one_cycle(self):
        m = PerfectMemory()
        assert m.access(0, 0x1234, AT.SCALAR_LOAD, 10) == 11
        assert m.fetch(0, 0x1000, 10) == 11

    def test_stream_limited_by_ports(self):
        m = PerfectMemory()
        done = m.access_stream(0, 0x1000, 8, 16, AT.VECTOR_LOAD, 0)
        assert done == 4                  # 16 elements / 4 ports

    def test_stats_report_full_hits(self):
        m = PerfectMemory()
        m.access(0, 0, AT.SCALAR_LOAD, 0)
        assert m.stats.l1.hit_rate == 1.0


class TestConventionalHierarchy:
    def test_miss_then_hit_latency(self):
        m = ConventionalHierarchy()
        first = m.access(0, 0x5000, AT.SCALAR_LOAD, 0)
        second = m.access(0, 0x5000, AT.SCALAR_LOAD, first)
        assert first > 12                 # had to go at least to L2
        assert second - first <= 2        # L1 hit
        assert m.stats.l1.accesses == 2
        assert m.stats.l1.hits == 1

    def test_l2_hit_faster_than_dram(self):
        m = ConventionalHierarchy()
        cold = m.access(0, 0x9000, AT.SCALAR_LOAD, 0)
        # Same 128-byte L2 line, different 32-byte L1 line:
        l2_hit = m.access(0, 0x9000 + 32, AT.SCALAR_LOAD, cold)
        assert cold - 0 > 60              # DRAM latency
        assert l2_hit - cold < 30

    def test_stores_not_counted_in_l1_hit_stats(self):
        m = ConventionalHierarchy()
        m.access(0, 0x100, AT.SCALAR_STORE, 0)
        assert m.stats.l1.accesses == 0

    def test_stream_coalesces_unit_stride_per_line(self):
        m = ConventionalHierarchy()
        m.access_stream(0, 0x4000, 8, 16, AT.VECTOR_LOAD, 0)
        # 16 x 8B unit stride = 128B = 4 L1 lines -> 4 L2 refills at most.
        assert m.stats.l1.accesses == 16  # stats count elements
        assert m.stats.l2.accesses <= 4

    def test_strided_stream_touches_more_lines(self):
        m = ConventionalHierarchy()
        m.access_stream(0, 0x40000, 64, 16, AT.VECTOR_LOAD, 0)
        assert m.stats.l2.accesses >= 8   # 64-byte stride: line per element x2

    def test_bank_conflicts_counted(self):
        m = ConventionalHierarchy()
        # Hammer one bank: same line repeatedly in the same cycle.
        for __ in range(8):
            m.access(0, 0x8000, AT.SCALAR_LOAD, 0)
        assert m.stats.bank_conflict_cycles > 0

    def test_reset_stats_preserves_cache_state(self):
        m = ConventionalHierarchy()
        done = m.access(0, 0x5000, AT.SCALAR_LOAD, 0)
        m.reset_stats()
        assert m.stats.l1.accesses == 0
        second = m.access(0, 0x5000, AT.SCALAR_LOAD, done)
        assert m.stats.l1.hits == 1       # still cached after reset

    def test_fetch_counts_icache(self):
        m = ConventionalHierarchy()
        fill = m.fetch(0, 0x1000, 0)
        done = m.fetch(0, 0x1000, fill + 100)
        assert m.stats.icache.accesses == 2
        assert m.stats.icache.hits == 1
        assert done == fill + 101


class TestDecoupledHierarchy:
    def test_vector_access_bypasses_l1(self):
        m = DecoupledHierarchy()
        m.access(0, 0x7000, AT.VECTOR_LOAD, 0)
        assert m.stats.l1.accesses == 0
        assert m.stats.l2.accesses == 1

    def test_scalar_access_uses_l1(self):
        m = DecoupledHierarchy()
        m.access(0, 0x7000, AT.SCALAR_LOAD, 0)
        assert m.stats.l1.accesses == 1

    def test_vector_stream_one_l2_access_per_line(self):
        m = DecoupledHierarchy()
        m.access_stream(0, 0x7000, 8, 16, AT.VECTOR_LOAD, 0)
        assert m.stats.l2.accesses == 1   # 128B = one L2 line

    def test_exclusive_bit_invalidates_l1_copy(self):
        m = DecoupledHierarchy()
        done = m.access(0, 0x7000, AT.SCALAR_LOAD, 0)     # L1 fill
        m.access(0, 0x7000, AT.VECTOR_LOAD, done)          # stream touch
        assert m.stats.coherence_invalidations == 1
        # The scalar copy is gone: next scalar access misses L1.
        before = m.stats.l1.hits
        m.access(0, 0x7000, AT.SCALAR_LOAD, done + 100)
        assert m.stats.l1.hits == before

    def test_invalidation_adds_two_cycles_to_the_vector_access(self):
        # Both lines are L2-resident; only A also has a scalar L1 copy,
        # so streaming A pays the exclusive-bit penalty on top of the
        # L2 hit that streaming B costs.
        m = DecoupledHierarchy()
        a, b = 0x7000, 0x9000
        m.access(0, a, AT.SCALAR_LOAD, 0)
        m.access(0, b, AT.VECTOR_LOAD, 1000)
        to_b = m.access(0, b, AT.VECTOR_LOAD, 2000) - 2000
        to_a = m.access(0, a, AT.VECTOR_LOAD, 3000) - 3000
        assert m.stats.coherence_invalidations == 1
        assert to_a - to_b == 2

    def test_no_invalidation_when_not_resident(self):
        m = DecoupledHierarchy()
        m.access(0, 0x9000, AT.VECTOR_LOAD, 0)
        assert m.stats.coherence_invalidations == 0

    def test_vector_store_marks_l2_dirty_writeback(self):
        m = DecoupledHierarchy()
        m.access(0, 0xA000, AT.VECTOR_STORE, 0)
        dram_before = m.dram.accesses
        # Evict by filling both ways of the set with other lines.
        sets = m.l2.config.n_sets
        line_bytes = m.l2.config.line
        for way in range(1, 3):
            conflict = 0xA000 + way * sets * line_bytes
            m.access(0, conflict, AT.VECTOR_LOAD, 1000 * way)
        assert m.dram.accesses > dram_before + 1   # refills + dirty writeback

    def test_vector_hit_costs_l2_latency(self):
        m = DecoupledHierarchy()
        first = m.access(0, 0xB000, AT.VECTOR_LOAD, 0)
        second = m.access(0, 0xB000, AT.VECTOR_LOAD, first)
        assert second - first >= 12       # L2 latency even on a hit
