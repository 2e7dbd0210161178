"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.arch.machine import Machine
from repro.common.config import CacheConfig, HybridLayoutConfig, MachineConfig
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE, KiB, MiB, PAGE_SIZE
from repro.gemos.frames import FrameAllocator
from repro.gemos.pagetable import PageTable
from repro.gemos.vma import MAP_NVM, PROT_READ, PROT_WRITE, AddressSpace
from repro.mem.hybrid import HybridLayout, MemType
from repro.mem.physmem import PhysicalMemory
from repro.persist.redolog import RedoLog

RW = PROT_READ | PROT_WRITE

# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(st.integers(0, 255), st.booleans()), min_size=1, max_size=300
)


def _tiny_hierarchy() -> Machine:
    """2-way caches of 16/32/64 lines: 256 lines thrash every level."""
    return Machine(
        MachineConfig(
            l1=CacheConfig("L1", KiB, 2, 1),
            l2=CacheConfig("L2", 2 * KiB, 2, 2),
            llc=CacheConfig("LLC", 4 * KiB, 2, 3),
            layout=HybridLayoutConfig(8 * MiB, 8 * MiB),
        )
    )


class TestCacheProperties:
    """Fill and victim invariants of the line path, at every level."""

    @given(ops=cache_ops)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, ops):
        machine = _tiny_hierarchy()
        for line, is_write in ops:
            machine.phys_line_access(line * CACHE_LINE, is_write)
        for cache in (machine.l1, machine.l2, machine.llc):
            for cache_set in cache._sets:  # noqa: SLF001
                assert len(cache_set) <= cache.assoc

    @given(ops=cache_ops)
    @settings(max_examples=60, deadline=None)
    def test_fill_makes_line_resident(self, ops):
        machine = _tiny_hierarchy()
        for line, is_write in ops:
            machine.phys_line_access(line * CACHE_LINE, is_write)
            for cache in (machine.l1, machine.l2, machine.llc):
                assert cache.contains(line)

    @given(ops=cache_ops)
    @settings(max_examples=60, deadline=None)
    def test_victims_are_distinct_from_filled_line(self, ops):
        """An access evicts at most one L1 line, never the one it
        fills, and only when that line missed into a full set.  (Lines
        may also leave the set as inclusion victims of L2/LLC fills.)"""
        machine = _tiny_hierarchy()
        l1 = machine.l1
        for line, is_write in ops:
            cache_set = l1._sets[line % l1.num_sets]  # noqa: SLF001
            before = set(cache_set)
            evictions = machine.stats["l1.evictions"]
            machine.phys_line_access(line * CACHE_LINE, is_write)
            assert line in cache_set
            evicted = machine.stats["l1.evictions"] - evictions
            assert evicted in (0, 1)
            if evicted:
                assert line not in before and len(before) == l1.assoc
                assert len(before - set(cache_set)) >= 1


# ----------------------------------------------------------------------
# VMA layout
# ----------------------------------------------------------------------

vma_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("map"),
            st.integers(0, 63),  # page index hint
            st.integers(1, 8),  # pages
            st.booleans(),  # nvm
        ),
        st.tuples(
            st.just("unmap"),
            st.integers(0, 63),
            st.integers(1, 8),
            st.booleans(),
        ),
    ),
    max_size=40,
)

BASE = 1 << 40


class TestAddressSpaceProperties:
    @given(ops=vma_ops)
    @settings(max_examples=80, deadline=None)
    def test_vmas_never_overlap_and_stay_sorted(self, ops):
        space = AddressSpace()
        for op, page, pages, nvm in ops:
            addr = BASE + page * PAGE_SIZE
            length = pages * PAGE_SIZE
            if op == "map":
                flags = MAP_NVM if nvm else 0
                space.map(addr, length, RW, flags)
            else:
                space.unmap(addr, length)
            vmas = list(space)
            for a, b in zip(vmas, vmas[1:]):
                assert a.end <= b.start

    @given(ops=vma_ops)
    @settings(max_examples=60, deadline=None)
    def test_snapshot_roundtrip(self, ops):
        space = AddressSpace()
        for op, page, pages, nvm in ops:
            addr = BASE + page * PAGE_SIZE
            length = pages * PAGE_SIZE
            if op == "map":
                space.map(addr, length, RW, MAP_NVM if nvm else 0)
            else:
                space.unmap(addr, length)
        restored = AddressSpace.from_snapshot(space.snapshot())
        assert restored.snapshot() == space.snapshot()

    @given(ops=vma_ops)
    @settings(max_examples=60, deadline=None)
    def test_unmapped_ranges_not_findable(self, ops):
        space = AddressSpace()
        space.map(BASE, 64 * PAGE_SIZE, RW)
        for op, page, pages, _nvm in ops:
            if op == "unmap":
                addr = BASE + page * PAGE_SIZE
                space.unmap(addr, pages * PAGE_SIZE)
                for p in range(page, page + pages):
                    assert space.find(BASE + p * PAGE_SIZE) is None


# ----------------------------------------------------------------------
# page table
# ----------------------------------------------------------------------

pt_ops = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap"]),
        st.integers(0, 1 << 20),  # vpn across several level-2 subtrees
    ),
    max_size=60,
)


class TestPageTableProperties:
    @given(ops=pt_ops)
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence(self, ops):
        """The table behaves exactly like a dict vpn -> pfn."""
        allocator = FrameAllocator(MemType.DRAM, 0, 65536, Stats())
        table = PageTable(allocator)
        model = {}
        next_pfn = 100
        for op, vpn in ops:
            if op == "map":
                if vpn not in model:
                    table.map(vpn, next_pfn)
                    model[vpn] = next_pfn
                    next_pfn += 1
            else:
                table.unmap(vpn)
                model.pop(vpn, None)
        assert {vpn: pte.pfn for vpn, pte in table.iter_leaves()} == model
        assert table.valid_leaves == len(model)

    @given(ops=pt_ops)
    @settings(max_examples=40, deadline=None)
    def test_frames_balance_after_full_teardown(self, ops):
        allocator = FrameAllocator(MemType.DRAM, 0, 65536, Stats())
        table = PageTable(allocator)
        live = set()
        next_pfn = 100
        for op, vpn in ops:
            if op == "map" and vpn not in live:
                table.map(vpn, next_pfn)
                next_pfn += 1
                live.add(vpn)
            elif op == "unmap":
                table.unmap(vpn)
                live.discard(vpn)
        for vpn in list(live):
            table.unmap(vpn)
        # Only the root frame remains allocated.
        assert allocator.allocated_count == 1


# ----------------------------------------------------------------------
# physical memory
# ----------------------------------------------------------------------


class TestPhysmemProperties:
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, 4 * PAGE_SIZE - 16),
                st.binary(min_size=1, max_size=16),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_return_last_write(self, writes):
        layout = HybridLayout(
            HybridLayoutConfig(dram_bytes=1 << 20, nvm_bytes=1 << 20)
        )
        mem = PhysicalMemory(layout)
        model = bytearray(4 * PAGE_SIZE)
        for addr, data in writes:
            mem.write(addr, data)
            model[addr : addr + len(data)] = data
        for addr, data in writes:
            assert mem.read(addr, len(data)) == bytes(
                model[addr : addr + len(data)]
            )


# ----------------------------------------------------------------------
# redo log
# ----------------------------------------------------------------------


class TestRedoLogProperties:
    @given(
        batches=st.lists(st.integers(0, 5), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_watermark_partitions_records(self, batches):
        log = RedoLog()
        appended = 0
        for batch in batches:
            for _ in range(batch):
                log.append("op", {"i": appended})
                appended += 1
            pending = log.pending()
            if pending:
                log.mark_applied(pending[-1].seq + 1)
            assert log.pending() == []
        assert log.next_seq == appended


# ----------------------------------------------------------------------
# allocator
# ----------------------------------------------------------------------


class TestAllocatorProperties:
    @given(
        ops=st.lists(st.booleans(), max_size=100),  # True=alloc, False=free
    )
    @settings(max_examples=60, deadline=None)
    def test_no_frame_handed_out_twice(self, ops):
        allocator = FrameAllocator(MemType.DRAM, 0, 64, Stats())
        live = []
        for do_alloc in ops:
            if do_alloc and allocator.free_count:
                pfn = allocator.alloc()
                assert pfn not in live
                live.append(pfn)
            elif not do_alloc and live:
                allocator.free(live.pop())
        assert allocator.allocated_count == len(live)
