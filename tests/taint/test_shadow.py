"""Unit tests for page-organised shadow memory and register banks.

Besides the unit contracts, this file holds the Hypothesis property
suite for the flag cache: after any interleaving of
set/clear/range/bulk ops, every page's summary word equals the OR of
its bytes' tag classes (and stays equal on the cached re-probe).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.registers import Reg
from repro.taint.intern import ProvInterner
from repro.taint.shadow import (
    SHADOW_PAGE_SHIFT,
    SHADOW_PAGE_SIZE,
    ShadowBank,
    ShadowMemory,
    ShadowRegisters,
    prov_class_mask,
)
from repro.taint.tags import Tag, TagType

N = Tag(TagType.NETFLOW, 0)
P = Tag(TagType.PROCESS, 1)
E = Tag(TagType.EXPORT_TABLE, 2)
F = Tag(TagType.FILE, 3)


class TestShadowMemory:
    def test_default_empty(self):
        assert ShadowMemory().get(0x1000) == ()

    def test_set_get(self):
        shadow = ShadowMemory()
        shadow.set(0x10, (N,))
        assert shadow.get(0x10) == (N,)
        assert shadow.get(0x11) == ()

    def test_set_empty_removes_entry(self):
        shadow = ShadowMemory()
        shadow.set(0x10, (N,))
        shadow.set(0x10, ())
        assert shadow.tainted_bytes == 0

    def test_get_range_unions(self):
        shadow = ShadowMemory()
        shadow.set(0x10, (N,))
        shadow.set(0x12, (P,))
        assert set(shadow.get_range(0x10, 4)) == {N, P}

    def test_get_bytes_unions_scattered_addresses(self):
        shadow = ShadowMemory()
        shadow.set(0x10, (N,))
        shadow.set(0x9010, (P,))
        assert set(shadow.get_bytes((0x10, 0x9010))) == {N, P}

    def test_set_range(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 4, (N,))
        assert shadow.tainted_bytes == 4

    def test_set_range_empty_clears(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 4, (N,))
        shadow.set_range(0, 4, ())
        assert shadow.tainted_bytes == 0

    def test_clear_range(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 8, (N,))
        shadow.clear_range(2, 4)
        assert shadow.tainted_bytes == 4

    def test_tainted_bytes_counts_distinct_addresses(self):
        shadow = ShadowMemory()
        shadow.set(1, (N,))
        shadow.set(1, (P,))
        assert shadow.tainted_bytes == 1

    def test_items_yields_every_tainted_byte(self):
        shadow = ShadowMemory()
        shadow.set(3, (N,))
        shadow.set(SHADOW_PAGE_SIZE + 7, (P,))
        assert dict(shadow.items()) == {3: (N,), SHADOW_PAGE_SIZE + 7: (P,)}

    def test_snapshot_is_flat_copy(self):
        shadow = ShadowMemory()
        shadow.set_range(10, 3, (N,))
        snap = shadow.snapshot()
        shadow.clear_range(10, 3)
        assert snap == {10: (N,), 11: (N,), 12: (N,)}


class TestPageOrganisation:
    def test_clean_memory_has_no_dirty_pages(self):
        assert ShadowMemory().dirty_pages() == []

    def test_dirty_page_index_tracks_population(self):
        shadow = ShadowMemory()
        shadow.set(5, (N,))
        shadow.set(3 * SHADOW_PAGE_SIZE + 1, (P,))
        assert shadow.dirty_pages() == [0, 3]

    def test_page_dropped_when_last_byte_clears(self):
        shadow = ShadowMemory()
        shadow.set(5, (N,))
        shadow.set(5, ())
        assert shadow.dirty_pages() == []

    def test_pages_clean_fast_exit(self):
        shadow = ShadowMemory()
        assert shadow.pages_clean((0, 1, 2, 3))
        shadow.set(SHADOW_PAGE_SIZE + 9, (N,))
        # Same page as the tainted byte: conservatively dirty.
        assert not shadow.pages_clean((SHADOW_PAGE_SIZE,))
        # Different page: still clean.
        assert shadow.pages_clean((0, 1, 2, 3))

    def test_range_ops_span_page_boundaries(self):
        shadow = ShadowMemory()
        start = SHADOW_PAGE_SIZE - 2
        shadow.set_range(start, 4, (N,))
        assert shadow.tainted_bytes == 4
        assert shadow.dirty_pages() == [0, 1]
        assert shadow.get_range(start, 4) == (N,)
        shadow.clear_range(start, 4)
        assert shadow.tainted_bytes == 0 and shadow.dirty_pages() == []

    def test_interned_unions_share_identity(self):
        interner = ProvInterner()
        shadow = ShadowMemory(interner)
        shadow.set(0, interner.seed(N))
        shadow.set(1, interner.seed(P))
        first = shadow.get_range(0, 2)
        second = shadow.get_range(0, 2)
        assert first == (N, P)
        assert first is second  # memoised union, no fresh allocation


ALL_TAGS = (N, P, E, F)

fc_addresses = st.integers(0, 2 * SHADOW_PAGE_SIZE - 1)
fc_provs = st.lists(st.sampled_from(ALL_TAGS), max_size=3, unique=True).map(tuple)
fc_scatter = st.lists(fc_addresses, min_size=1, max_size=6).map(tuple)

#: Any interleaving of the shadow API over a three-page physical window.
flag_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), fc_addresses, fc_provs),
        st.tuples(st.just("set_range"), fc_addresses, st.integers(0, 64), fc_provs),
        st.tuples(st.just("clear_range"), fc_addresses, st.integers(0, 64)),
        st.tuples(
            st.just("append_range"),
            fc_addresses,
            st.integers(1, 64),
            st.sampled_from(ALL_TAGS),
        ),
        st.tuples(
            st.just("copy_range"),
            fc_addresses,
            fc_addresses,
            st.integers(1, 48),
            st.sampled_from(ALL_TAGS + (None,)),
        ),
        st.tuples(st.just("set_bytes"), fc_scatter, fc_provs),
        st.tuples(st.just("clear_bytes"), fc_scatter),
    ),
    max_size=15,
)


def summary_oracle(shadow, number):
    """OR of the page's byte tag classes, straight off the flat snapshot."""
    mask = 0
    for paddr, prov in shadow.snapshot().items():
        if paddr >> SHADOW_PAGE_SHIFT == number:
            mask |= prov_class_mask(prov)
    return mask


class TestFlagCacheInvariant:
    @given(ops=flag_ops)
    @settings(max_examples=60, deadline=None)
    def test_summary_equals_or_of_byte_classes(self, ops):
        shadow = ShadowMemory(ProvInterner())
        for op in ops:
            getattr(shadow, op[0])(*op[1:])
            for number in range(3):
                expected = summary_oracle(shadow, number)
                assert shadow.page_summary(number) == expected
                # The cached re-probe must agree with the recompute.
                assert shadow.page_summary(number) == expected

    @pytest.mark.slow
    @given(ops=flag_ops)
    @settings(max_examples=400, deadline=None)
    def test_summary_invariant_exhaustive(self, ops):
        self.test_summary_equals_or_of_byte_classes.hypothesis.inner_test(self, ops)


class TestShadowRegisters:
    def test_default_untainted(self):
        regs = ShadowRegisters()
        assert regs.get(Reg.R0) == () and regs.flags == ()
        assert regs.tainted == 0

    def test_set_get(self):
        regs = ShadowRegisters()
        regs.set(Reg.R3, (N,))
        assert regs.get(Reg.R3) == (N,)
        assert regs.get(Reg.R4) == ()

    def test_tainted_count_tracks_transitions(self):
        regs = ShadowRegisters()
        regs.set(Reg.R1, (N,))
        regs.set(Reg.R2, (P,))
        assert regs.tainted == 2
        regs.set(Reg.R1, (P,))  # overwrite tainted with tainted
        assert regs.tainted == 2
        regs.set(Reg.R1, ())
        assert regs.tainted == 1
        regs.set(Reg.R1, ())  # clearing a clean register is a no-op
        assert regs.tainted == 1


class TestShadowBank:
    def test_banks_are_per_thread(self):
        bank = ShadowBank()
        bank.for_thread(1).set(Reg.R1, (N,))
        assert bank.for_thread(2).get(Reg.R1) == ()
        assert bank.for_thread(1).get(Reg.R1) == (N,)

    def test_drop_thread(self):
        bank = ShadowBank()
        bank.for_thread(1).set(Reg.R1, (N,))
        bank.drop_thread(1)
        assert bank.for_thread(1).get(Reg.R1) == ()

    def test_drop_unknown_thread_is_noop(self):
        ShadowBank().drop_thread(99)

    def test_any_tainted_sees_registers_and_flags(self):
        bank = ShadowBank()
        assert not bank.any_tainted()
        bank.for_thread(1).set(Reg.R1, (N,))
        assert bank.any_tainted()
        bank.for_thread(1).set(Reg.R1, ())
        assert not bank.any_tainted()
        bank.for_thread(2).flags = (P,)
        assert bank.any_tainted()
