"""Property-based tests of memory-system invariants (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import ConventionalHierarchy, DecoupledHierarchy
from repro.memory.cache import CacheConfig
from repro.memory.interface import AccessType as AT, physical_address
from repro.memory.sram import TagArray

addresses = st.lists(
    st.integers(0, (1 << 20) - 1).map(lambda a: a & ~0x7),
    min_size=1,
    max_size=200,
)


class TestCausality:
    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_completion_always_after_issue(self, addrs):
        memory = ConventionalHierarchy()
        now = 0
        for addr in addrs:
            done = memory.access(0, addr, AT.SCALAR_LOAD, now)
            assert done > now
            now = done

    @given(addresses)
    @settings(max_examples=20, deadline=None)
    def test_decoupled_completion_after_issue(self, addrs):
        memory = DecoupledHierarchy()
        now = 0
        for i, addr in enumerate(addrs):
            kind = AT.VECTOR_LOAD if i % 3 == 0 else AT.SCALAR_LOAD
            done = memory.access(0, addr, kind, now)
            assert done > now
            now = done

    @given(addresses)
    @settings(max_examples=20, deadline=None)
    def test_hit_counters_consistent(self, addrs):
        memory = ConventionalHierarchy()
        now = 0
        for addr in addrs:
            now = memory.access(0, addr, AT.SCALAR_LOAD, now)
        stats = memory.stats.l1
        assert 0 <= stats.hits <= stats.accesses == len(addrs)
        assert stats.misses == stats.accesses - stats.hits

    @given(addresses)
    @settings(max_examples=20, deadline=None)
    def test_immediate_reuse_always_hits(self, addrs):
        memory = ConventionalHierarchy()
        now = 0
        for addr in addrs:
            now = memory.access(0, addr, AT.SCALAR_LOAD, now)
            before = memory.stats.l1.hits
            now = memory.access(0, addr, AT.SCALAR_LOAD, now)
            assert memory.stats.l1.hits == before + 1


class TestCacheGeometry:
    @given(
        st.sampled_from([1, 2, 4]),
        st.lists(st.integers(0, 4095), min_size=1, max_size=400),
    )
    @settings(max_examples=25, deadline=None)
    def test_occupancy_bounded_by_capacity(self, assoc, lines):
        tags = TagArray(64, assoc)
        for line in lines:
            tags.fill(line)
        assert tags.occupancy() <= 64 * assoc

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_higher_associativity_never_evicts_sooner(self, lines):
        """A 2-way cache retains at least every line a DM cache retains
        under an identical reference stream ending in a probe."""
        direct = TagArray(32, 1)
        twoway = TagArray(32, 2)
        for line in lines:
            direct.fill(line)
            twoway.fill(line)
        # LRU inclusion property: the most recent fill per set survives
        # in both; check the final reference specifically.
        assert twoway.lookup(lines[-1], update_lru=False)
        assert direct.lookup(lines[-1], update_lru=False)

    def test_bigger_cache_fewer_misses_on_loop(self):
        small = CacheConfig("s", size=4 << 10, assoc=1, line=32, banks=1, latency=1)
        big = CacheConfig("b", size=64 << 10, assoc=1, line=32, banks=1, latency=1)
        misses = {}
        for label, config in (("small", small), ("big", big)):
            memory = ConventionalHierarchy(l1_config=config)
            now = 0
            for __ in range(3):
                for addr in range(0, 16 << 10, 32):   # 16 KB loop
                    now = memory.access(0, addr, AT.SCALAR_LOAD, now)
            misses[label] = memory.stats.l1.misses
        assert misses["big"] < misses["small"]


class TestThreadIsolationOfTranslation:
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, (1 << 24) - 1))
    @settings(max_examples=50, deadline=None)
    def test_same_thread_same_translation(self, t1, t2, addr):
        from repro.memory.interface import physical_address

        first = physical_address(t1, addr)
        again = physical_address(t1, addr)
        assert first == again
        if t1 != t2:
            # Different contexts map the same VA to different frames
            # (with overwhelming probability for a correct hash).
            other = physical_address(t2, addr)
            assert (first >> 12) != (other >> 12) or t1 == t2


# ----- the warming path against the detailed path ---------------------------

_KINDS = {
    "load": AT.SCALAR_LOAD,
    "store": AT.SCALAR_STORE,
    "vload": AT.VECTOR_LOAD,
    "vstore": AT.VECTOR_STORE,
}

# A few dozen pages with a few lines each, so physical page colours
# collide: sets fill, evict and reorder their LRU lists.
_pages = st.builds(
    lambda page, offset: (page << 12) | (offset & ~0x7),
    st.integers(0, 47),
    st.integers(0, 511),
)
_threads = st.integers(0, 3)

#: (operation, thread, address, stride, element count)
operations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(sorted(_KINDS)), _threads, _pages,
            st.just(0), st.just(1),
        ),
        st.tuples(
            st.sampled_from(["vload", "vstore"]), _threads, _pages,
            st.integers(8, 128), st.integers(2, 16),
        ),
        st.tuples(st.just("fetch"), _threads, _pages, st.just(0), st.just(1)),
    ),
    min_size=1,
    max_size=120,
)


def tag_state(memory) -> dict:
    """Every set's ``(line, dirty)`` list, in LRU order, per cache."""
    return {
        name: [
            [tuple(entry) for entry in entries]
            for entries in getattr(memory, name).tags._sets
        ]
        for name in ("l1", "icache", "l2")
    }


def two_way_l1() -> ConventionalHierarchy:
    """A conventional hierarchy with a 2-way L1: it accepts any L1
    geometry, so its inline warming code must not assume direct mapping."""
    return ConventionalHierarchy(
        l1_config=CacheConfig(
            "L1D", size=32 << 10, assoc=2, line=32, banks=8, latency=1
        )
    )


def warm_ops(memory, ops) -> None:
    """Drive ``ops`` (see :data:`operations`) through the warming path."""
    for op, thread, addr, stride, count in ops:
        if op == "fetch":
            memory.warm_fetch(thread, addr)
        elif count > 1:
            memory.warm_stream(thread, addr, stride, count, _KINDS[op])
        else:
            memory.warm(thread, addr, _KINDS[op])


class TestWarmingMatchesDetail:
    """``MemorySystem.warm`` promises the tag state the detailed path
    leaves.  The sampled fast-forward carries most of a sampled run's
    instructions through that promise, so check it on random mixes of
    scalar, vector, stream and fetch references from four threads, with
    each detailed call issued long after the previous one's fills have
    landed."""

    @pytest.mark.parametrize(
        "hierarchy",
        [
            ConventionalHierarchy,
            DecoupledHierarchy,
            pytest.param(two_way_l1, id="ConventionalHierarchy-2way-L1"),
        ],
    )
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_warming_leaves_the_detailed_tag_state(self, hierarchy, ops):
        warmed = hierarchy()
        detailed = hierarchy()
        now = 0
        for op, thread, addr, stride, count in ops:
            now += 100_000
            if op == "fetch":
                warmed.warm_fetch(thread, addr)
                detailed.fetch(thread, addr, now)
            elif count > 1:
                kind = _KINDS[op]
                warmed.warm_stream(thread, addr, stride, count, kind)
                detailed.access_stream(thread, addr, stride, count, kind, now)
            else:
                warmed.warm(thread, addr, _KINDS[op])
                detailed.access(thread, addr, _KINDS[op], now)
        assert tag_state(warmed) == tag_state(detailed)


class TestSamePageILineRewarm:
    """The sampled fast-forward skips warming an I-line again when every
    I-line the same thread warmed since its previous warm of that line
    lies in the line's own 4 KB page (``core/smt.py:_ff_plan``).  That is
    exact because page-offset bits 5-11 index the I-cache set: nothing in
    between touched the line's set, and the data references in between
    never touch the I-cache, so the skipped warm is a hit on the set's
    most recently used line."""

    @pytest.mark.parametrize(
        "hierarchy", [ConventionalHierarchy, DecoupledHierarchy]
    )
    @given(
        prior=operations,
        thread=_threads,
        page=st.integers(0, 47),
        line=st.integers(0, 127),
        between=operations,
    )
    @settings(max_examples=60, deadline=None)
    def test_same_page_rewarm_changes_nothing(
        self, hierarchy, prior, thread, page, line, between
    ):
        memory = hierarchy()
        warm_ops(memory, prior)
        line_addr = (page << 12) | (line << 5)
        memory.warm_fetch(thread, line_addr)
        for op, __, addr, stride, count in between:
            if op == "fetch":
                # Another line of the same page, instead of ``addr``.
                other = (addr >> 5) & 127
                if other != line:
                    memory.warm_fetch(thread, (page << 12) | (other << 5))
            else:
                warm_ops(memory, [(op, thread, addr, stride, count)])
        before = tag_state(memory)
        memory.warm_fetch(thread, line_addr)
        assert tag_state(memory) == before

    @pytest.mark.parametrize(
        "hierarchy", [ConventionalHierarchy, DecoupledHierarchy]
    )
    def test_a_line_of_another_page_in_between_can_change_it(
        self, hierarchy
    ):
        memory = hierarchy()
        icache = memory.icache

        def set_of(addr: int) -> int:
            phys = physical_address(0, addr)
            return (phys >> icache._line_shift) & icache.tags._set_mask

        line_addr = 0x10040
        # The same page offset in another page whose frame shares the
        # I-cache set (the set index's bits above the page offset come
        # from the frame number).
        other = next(
            addr
            for addr in range(line_addr + 4096, line_addr + (1 << 22), 4096)
            if set_of(addr) == set_of(line_addr)
        )
        memory.warm_fetch(0, line_addr)
        memory.warm_fetch(0, other)
        before = tag_state(memory)
        memory.warm_fetch(0, line_addr)
        assert tag_state(memory) != before
