"""Set-associative caches: LRU, dirty bits, eviction, clwb semantics.

Hits, fills and victims are driven through the one line path,
:meth:`Machine.phys_line_access`; the maintenance operations that stay
on :class:`Cache` (clean, invalidate, drop) are called directly.
"""

from repro.arch.machine import Machine
from repro.common.config import (
    CacheConfig,
    HybridLayoutConfig,
    MachineConfig,
    TlbConfig,
)
from repro.common.units import CACHE_LINE, KiB, MiB


def make_machine(assoc=2):
    """A 32-line L1 of ``assoc`` ways above roomier L2 and LLC levels,
    so L1 conflicts never spill out of the lower levels."""
    return Machine(
        MachineConfig(
            l1=CacheConfig("L1", 2 * KiB, assoc, hit_latency=4),
            l2=CacheConfig("L2", 8 * KiB, 4, hit_latency=14),
            llc=CacheConfig("LLC", 32 * KiB, 8, hit_latency=40),
            tlb=TlbConfig(entries=16),
            layout=HybridLayoutConfig(8 * MiB, 8 * MiB),
        )
    )


def touch(machine, line, is_write=False):
    machine.phys_line_access(line * CACHE_LINE, is_write)


def same_set_lines(machine, count):
    """DRAM line numbers that all map to L1 set 0."""
    base = machine.layout.dram_base // CACHE_LINE
    return [base + i * machine.l1.num_sets for i in range(count)]


class TestLookupAndFill:
    def test_miss_on_empty(self):
        machine = make_machine()
        touch(machine, 0)
        assert machine.stats["l1.miss"] == 1
        assert machine.stats["l1.hit"] == 0

    def test_hit_after_fill(self):
        machine = make_machine()
        touch(machine, 0)
        touch(machine, 0)
        assert machine.stats["l1.hit"] == 1
        assert machine.l1.contains(0)

    def test_fill_existing_line_produces_no_victim(self):
        machine = make_machine()
        touch(machine, 0)
        touch(machine, 0)
        assert machine.stats["l1.evictions"] == 0
        assert machine.l1.resident_lines() == 1

    def test_victim_is_lru(self):
        machine = make_machine(assoc=2)
        a, b, c = same_set_lines(machine, 3)
        for line in (a, b, c):
            touch(machine, line)
        assert not machine.l1.contains(a)
        assert machine.l1.contains(b) and machine.l1.contains(c)
        assert machine.l2.contains(a)  # clean victims just leave the L1

    def test_lookup_refreshes_lru(self):
        machine = make_machine(assoc=2)
        a, b, c = same_set_lines(machine, 3)
        for line in (a, b, a, c):  # the hit makes a MRU
            touch(machine, line)
        assert machine.l1.contains(a) and not machine.l1.contains(b)

    def test_different_sets_do_not_conflict(self):
        machine = make_machine(assoc=1)
        touch(machine, 0)
        touch(machine, 1)  # different set
        assert machine.l1.contains(0) and machine.l1.contains(1)


class TestDirtyTracking:
    def test_write_hit_sets_dirty(self):
        machine = make_machine(assoc=2)
        a, b, c = same_set_lines(machine, 3)
        touch(machine, a)
        touch(machine, a, is_write=True)
        touch(machine, b)
        touch(machine, c)
        # The dirty victim lands dirty in the L2 copy.
        assert machine.l2.dirty_lines() == [a]

    def test_fill_dirty(self):
        machine = make_machine(assoc=1)
        a, b = same_set_lines(machine, 2)
        touch(machine, a, is_write=True)  # write miss fills dirty
        assert machine.l1.dirty_lines() == [a]
        touch(machine, b)
        assert machine.l2.dirty_lines() == [a]

    def test_clean_clears_dirty_keeps_resident(self):
        machine = make_machine()
        touch(machine, 0, is_write=True)
        assert machine.l1.clean(0) is True
        assert machine.l1.contains(0)
        assert machine.l1.clean(0) is False  # already clean

    def test_clean_absent_line(self):
        assert make_machine().l1.clean(0) is False

    def test_set_dirty_on_resident(self):
        """A dirty L1 victim marks the resident L2 copy dirty instead of
        going to memory."""
        machine = make_machine(assoc=1)
        a, b = same_set_lines(machine, 2)
        touch(machine, a, is_write=True)
        touch(machine, b)
        assert machine.l2.dirty_lines() == [a]
        assert machine.stats["cache.writebacks"] == 0

    def test_set_dirty_on_absent(self):
        """With no copy left below (invalidated behind the L1), a dirty
        L1 victim is written back to memory."""
        machine = make_machine(assoc=1)
        a, b = same_set_lines(machine, 2)
        touch(machine, a, is_write=True)
        machine.l2.invalidate(a)
        machine.llc.invalidate(a)
        touch(machine, b)
        assert machine.l2.dirty_lines() == machine.llc.dirty_lines() == []
        assert machine.stats["cache.writebacks"] == 1
        assert machine.stats["dram.writes"] == 1

    def test_invalidate_returns_dirty_bit(self):
        machine = make_machine()
        touch(machine, 0, is_write=True)
        assert machine.l1.invalidate(0) is True
        assert not machine.l1.contains(0)
        assert machine.l1.invalidate(0) is False


class TestMaintenance:
    def test_drop_all(self):
        machine = make_machine()
        touch(machine, 0, is_write=True)
        machine.l1.drop_all()
        assert machine.l1.resident_lines() == 0

    def test_resident_lines(self):
        machine = make_machine()
        touch(machine, 0)
        touch(machine, 1)
        assert machine.l1.resident_lines() == 2

    def test_eviction_stat(self):
        machine = make_machine(assoc=1)
        a, b = same_set_lines(machine, 2)
        touch(machine, a)
        touch(machine, b)
        assert machine.stats["l1.evictions"] == 1
