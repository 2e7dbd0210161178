"""Four-level page table: mapping, reclamation, walks, observers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import Machine
from repro.common.config import small_machine_config
from repro.common.stats import Stats
from repro.gemos.frames import FrameAllocator
from repro.common.errors import FaultError
from repro.common.units import PAGE_SIZE
from repro.gemos.pagetable import (
    ENTRIES_PER_TABLE,
    LEVELS,
    PTE_SIZE,
    PageTable,
    _index_at,
)
from repro.gemos.vma import MAP_NVM, PROT_READ, PROT_WRITE
from repro.mem.hybrid import MemType


@pytest.fixture
def allocator():
    return FrameAllocator(  # repro: allow-geometry(pfn range bound, not a byte size)
        MemType.DRAM, 0, 4096, Stats()
    )


@pytest.fixture
def table(allocator):
    return PageTable(allocator)


class TestMapping:
    def test_lookup_unmapped(self, table):
        assert table.lookup(5) is None

    def test_map_then_lookup(self, table):
        table.map(5, 42)
        pte = table.lookup(5)
        assert pte is not None and pte.pfn == 42 and pte.writable

    def test_map_readonly(self, table):
        table.map(5, 42, writable=False)
        assert not table.lookup(5).writable

    def test_first_map_writes_all_levels(self, table):
        writes = table.map(0, 1)
        assert writes == LEVELS  # 3 new tables + 1 leaf

    def test_adjacent_map_writes_only_leaf(self, table):
        table.map(0, 1)
        assert table.map(1, 2) == 1

    def test_distant_vpns_use_separate_subtrees(self, table):
        far = ENTRIES_PER_TABLE**3  # different level-3 slot
        table.map(0, 1)
        writes = table.map(far, 2)
        assert writes == LEVELS

    def test_valid_leaves_counter(self, table):
        table.map(0, 1)
        table.map(1, 2)
        assert table.valid_leaves == 2
        table.unmap(0)
        assert table.valid_leaves == 1

    def test_iter_leaves_sorted(self, table):
        table.map(9, 1)
        table.map(3, 2)
        assert [vpn for vpn, _ in table.iter_leaves()] == [3, 9]

    def test_update_pfn(self, table):
        table.map(5, 42)
        assert table.update_pfn(5, 43)
        assert table.lookup(5).pfn == 43

    def test_update_pfn_missing(self, table):
        assert not table.update_pfn(5, 43)

    def test_protect(self, table):
        table.map(5, 42)
        assert table.protect(5, writable=False)
        assert not table.lookup(5).writable

    def test_protect_missing(self, table):
        assert not table.protect(5, True)


class TestReclamation:
    def test_unmap_returns_pte(self, table):
        table.map(5, 42)
        pte = table.unmap(5)
        assert pte.pfn == 42
        assert table.lookup(5) is None

    def test_unmap_missing(self, table):
        assert table.unmap(5) is None

    def test_empty_tables_are_reclaimed(self, table, allocator):
        before = allocator.allocated_count  # just the root
        table.map(5, 42)
        table.unmap(5)
        assert allocator.allocated_count == before

    def test_shared_tables_survive_partial_unmap(self, table):
        table.map(0, 1)
        table.map(1, 2)
        table.unmap(0)
        assert table.lookup(1).pfn == 2

    def test_table_count(self, table):
        assert table.table_count() == 1  # root only
        table.map(0, 1)
        assert table.table_count() == LEVELS

    def test_destroy_frees_everything(self, table, allocator):
        table.map(0, 1)
        table.map(ENTRIES_PER_TABLE**3, 2)
        table.destroy()
        assert allocator.allocated_count == 0


class TestObserver:
    def test_observer_sees_every_entry_write(self, allocator):
        paddrs = []
        table = PageTable(allocator, write_observer=paddrs.append)
        table.map(0, 1)
        assert len(paddrs) == LEVELS
        table.unmap(0)
        # leaf clear + 3 parent clears from reclamation
        assert len(paddrs) == 2 * LEVELS

    def test_entry_writes_counter(self, table):
        table.map(0, 1)
        assert table.entry_writes == LEVELS


class TestHardwareWalk:
    def test_walk_finds_mapping(self, table):
        machine = Machine(small_machine_config())
        machine.install_context(1, table.hw_walk, None)
        table.map(7, 12)
        _, pfn, writable = table.hw_walk(7)
        assert (pfn, writable) == (12, True)
        assert machine.translate(7 * PAGE_SIZE, False).pfn == 12
        assert machine.stats["walk.completed"] == 1

    def test_walk_charges_four_accesses(self, table):
        machine = Machine(small_machine_config())
        machine.install_context(1, table.hw_walk, None)
        table.map(7, 12)
        machine.stats.reset()
        machine.translate(7 * PAGE_SIZE, False)
        probes = machine.stats["l1.hit"] + machine.stats["l1.miss"]
        assert probes == LEVELS

    def test_walk_aborts_on_missing(self, table):
        machine = Machine(small_machine_config())
        machine.install_context(1, table.hw_walk, None)
        assert table.hw_walk(7)[1] is None
        with pytest.raises(FaultError):
            machine.translate(7 * PAGE_SIZE, False)
        assert machine.stats["walk.aborted"] == 1


class TestWalkRecord:
    """``hw_walk`` is data: entry addresses in walk order, then the
    translation, with nothing charged."""

    def test_addresses_are_each_levels_entry(self, table):
        vpn = (3 << 27) | (5 << 18) | (7 << 9) | 9
        table.map(vpn, 42, writable=False)
        expected = []
        node = table.root
        for level in range(LEVELS - 1, -1, -1):
            index = _index_at(vpn, level)
            expected.append(node.entry_paddr(index))
            node = node.entries[index]
        assert table.hw_walk(vpn) == (tuple(expected), 42, False)
        assert table.peek(vpn) == (42, False)

    @pytest.mark.parametrize("level", range(LEVELS))
    def test_fault_at_each_level_ends_at_the_aborting_entry(self, table, level):
        table.map(0, 1)
        mapped_paddrs, _, _ = table.hw_walk(0)
        vpn = 1 << (9 * level)  # diverges from vpn 0 at ``level``
        paddrs, pfn, writable = table.hw_walk(vpn)
        depth = LEVELS - level
        assert (pfn, writable) == (None, False)
        assert len(paddrs) == depth
        assert paddrs[:-1] == mapped_paddrs[: depth - 1]
        # Same table, the neighbouring entry.
        assert paddrs[-1] == mapped_paddrs[depth - 1] + PTE_SIZE
        assert table.peek(vpn) is None

    def test_walks_are_pure(self, table):
        machine = Machine(small_machine_config())
        machine.install_context(1, table.hw_walk, None)
        table.map(7, 12)
        table.map(ENTRIES_PER_TABLE**3, 13)
        before = (machine.clock, machine.stats.dump(), table.entry_writes)
        for vpn in (7, ENTRIES_PER_TABLE**3, 8, 1 << 30):
            assert machine.walker(vpn) == machine.walker(vpn)
        assert (machine.clock, machine.stats.dump(), table.entry_writes) == before


def _fresh_walk(table, vpn):
    """Reference traversal, level by level, bypassing the walk memo."""
    paddrs = []
    node = table.root
    for level in range(LEVELS - 1, -1, -1):
        index = _index_at(vpn, level)
        paddrs.append(node.entry_paddr(index))
        node = node.entries.get(index)
        if node is None:
            return tuple(paddrs), None, False
    return tuple(paddrs), node.pfn, node.writable


#: Vpns sharing and splitting subtrees at every level, plus neighbours.
_MEMO_VPNS = sorted(
    {
        base + delta
        for base in (
            1,
            ENTRIES_PER_TABLE,
            ENTRIES_PER_TABLE**2,
            ENTRIES_PER_TABLE**3,
            5 * ENTRIES_PER_TABLE**2 + 3 * ENTRIES_PER_TABLE,
        )
        for delta in (-1, 0, 1)
    }
)

_MEMO_OPS = st.one_of(
    st.tuples(
        st.just("map"),
        st.sampled_from(_MEMO_VPNS),
        st.integers(1, 1000),
        st.booleans(),
    ),
    st.tuples(st.just("unmap"), st.sampled_from(_MEMO_VPNS)),
    st.tuples(st.just("protect"), st.sampled_from(_MEMO_VPNS), st.booleans()),
    st.tuples(
        st.just("update_pfn"), st.sampled_from(_MEMO_VPNS), st.integers(1, 1000)
    ),
)


class TestWalkMemo:
    """``hw_walk`` memoizes completed records; every mutation must leave
    the memo agreeing with a fresh traversal."""

    @given(st.lists(_MEMO_OPS, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_fresh_traversal(self, ops):
        table = PageTable(
            FrameAllocator(MemType.DRAM, 0, ENTRIES_PER_TABLE, Stats())
        )
        for op in ops:
            getattr(table, op[0])(*op[1:])
            for vpn in _MEMO_VPNS:
                assert table.hw_walk(vpn) == _fresh_walk(table, vpn), (op, vpn)

    def test_completed_records_are_reused(self, table):
        table.map(7, 12)
        assert table.hw_walk(7) is table.hw_walk(7)

    def test_destroyed_table_raises_instead_of_returning_a_stale_record(
        self, table
    ):
        table.map(7, 12)
        assert table.hw_walk(7)[1] == 12
        table.destroy()
        with pytest.raises(AttributeError):
            table.hw_walk(7)

    def test_reattached_persistent_table_walks_after_prune(
        self, persistent_system
    ):
        """Recovery reattaches the NVM-resident table object and prunes
        its DRAM leaf with ``unmap``; records memoized before the crash
        must not survive the prune."""
        system = persistent_system
        kernel = system.kernel
        process = system.spawn("app")
        rw = PROT_READ | PROT_WRITE
        dram_addr = kernel.sys_mmap(process, None, PAGE_SIZE, rw, 0, name="d")
        nvm_addr = kernel.sys_mmap(
            process, None, PAGE_SIZE, rw, MAP_NVM, name="n"
        )
        system.machine.store(dram_addr, b"v")
        system.machine.store(nvm_addr, b"p")
        system.checkpoint()
        table = process.page_table
        vpns = (dram_addr // PAGE_SIZE, nvm_addr // PAGE_SIZE)
        assert all(table.hw_walk(vpn)[1] is not None for vpn in vpns)
        system.crash()
        (recovered,) = system.boot()
        assert recovered.page_table is table
        assert system.stats["recovery.stale_dram_leaves"] == 1
        assert table.hw_walk(vpns[0])[1] is None
        for vpn in vpns:
            assert table.hw_walk(vpn) == _fresh_walk(table, vpn)
        system.kernel.switch_to(recovered)
        assert system.machine.load(nvm_addr, 1) == b"p"
        assert system.machine.load(dram_addr, 1) == b"\x00"
        for vpn in vpns:
            assert table.hw_walk(vpn) == _fresh_walk(table, vpn)
