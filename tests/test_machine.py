"""Machine model: clock, mode attribution, memory path, power failure."""

import pytest

from repro.arch.hooks import HardwareExtension
from repro.arch.machine import Machine
from repro.common.config import small_machine_config
from repro.common.errors import FaultError
from repro.common.units import CACHE_LINE, PAGE_SIZE
from repro.mem.hybrid import MemType


@pytest.fixture
def machine():
    return Machine(small_machine_config())


def install_flat_space(machine, pages=64, writable=True, base_pfn=0):
    """Identity-ish walker: vpn n -> pfn base_pfn + n for n < pages."""

    def walker(vpn):
        if vpn < pages:
            return (), base_pfn + vpn, writable
        return (), None, False

    machine.install_context(1, walker, None)


def nvm_base_pfn(machine):
    lo, _hi = machine.layout.pfn_range(MemType.NVM)
    return lo


class TestClockAndModes:
    def test_advance_moves_clock(self, machine):
        machine.advance(10)
        assert machine.clock == 10
        assert machine.stats["cycles.user"] == 10

    def test_negative_advance_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.advance(-1)

    def test_os_region_attribution(self, machine):
        with machine.os_region("fault"):
            machine.advance(5)
        assert machine.stats["cycles.os.fault"] == 5
        assert machine.stats["cycles.os.total"] == 5
        assert machine.stats["cycles.user"] == 0

    def test_nested_regions_attribute_to_innermost(self, machine):
        with machine.os_region("outer"):
            with machine.os_region("inner"):
                machine.advance(3)
        assert machine.stats["cycles.os.inner"] == 3
        assert machine.stats["cycles.os.outer"] == 0

    def test_uncharged_region_freezes_clock(self, machine):
        with machine.os_region("migration", charge=False):
            machine.advance(100)
        assert machine.clock == 0
        assert machine.stats["uncharged.os.migration"] == 100

    def test_in_os_mode_flag(self, machine):
        assert not machine.in_os_mode
        with machine.os_region("x"):
            assert machine.in_os_mode
        assert not machine.in_os_mode


class TestPhysicalPath:
    def test_first_access_reaches_memory(self, machine):
        machine.phys_line_access(0, is_write=False)
        assert machine.stats["dram.reads"] == 1
        assert machine.stats["l1.miss"] == 1

    def test_second_access_hits_l1(self, machine):
        machine.phys_line_access(0, False)
        before = machine.clock
        machine.phys_line_access(0, False)
        assert machine.clock - before == machine.config.l1.hit_latency
        assert machine.stats["l1.hit"] == 1

    def test_nvm_addresses_route_to_nvm(self, machine):
        addr = nvm_base_pfn(machine) * PAGE_SIZE
        machine.phys_line_access(addr, False)
        assert machine.stats["nvm.reads"] == 1

    def test_nvm_read_slower_than_dram(self, machine):
        t0 = machine.clock
        machine.phys_line_access(0, False)
        dram_cost = machine.clock - t0
        t0 = machine.clock
        machine.phys_line_access(nvm_base_pfn(machine) * PAGE_SIZE, False)
        nvm_cost = machine.clock - t0
        assert nvm_cost > dram_cost

    def test_clwb_writes_back_dirty_line(self, machine):
        machine.phys_line_access(0, is_write=True)
        assert machine.clwb(0) is True
        assert machine.stats["clwb.writebacks"] == 1
        # Second clwb: clean line, no writeback.
        assert machine.clwb(0) is False

    def test_persist_barrier_after_nvm_write(self, machine):
        addr = nvm_base_pfn(machine) * PAGE_SIZE
        machine.phys_line_access(addr, is_write=True)
        machine.clwb(addr)
        before = machine.clock
        machine.persist_barrier()
        assert machine.clock > before

    def test_flush_page_lines_counts_dirty(self, machine):
        pfn = 3
        machine.phys_line_access(pfn * PAGE_SIZE, True)
        machine.phys_line_access(pfn * PAGE_SIZE + CACHE_LINE, True)
        assert machine.flush_page_lines(pfn) == 2

    def test_invalidate_page_lines(self, machine):
        machine.phys_line_access(0, True)
        machine.invalidate_page_lines(0)
        assert machine.l1.resident_lines() == 0


class TestVirtualPath:
    def test_access_translates_and_charges(self, machine):
        install_flat_space(machine)
        machine.access(0, 8, is_write=False)
        assert machine.stats["ops.reads"] == 1
        assert machine.stats["tlb.miss"] == 1
        assert machine.clock > 0

    def test_tlb_hit_on_repeat(self, machine):
        install_flat_space(machine)
        machine.access(0, 8, False)
        machine.access(8, 8, False)
        assert machine.stats["tlb.hit"] == 1

    def test_access_spanning_lines(self, machine):
        install_flat_space(machine)
        machine.access(60, 8, False)  # crosses a line boundary
        assert machine.stats["l1.miss"] == 2

    def test_access_spanning_pages(self, machine):
        install_flat_space(machine)
        machine.access(PAGE_SIZE - 4, 8, False)
        assert machine.stats["ops.reads"] == 2  # one per page chunk

    def test_unmapped_access_without_handler_faults(self, machine):
        install_flat_space(machine, pages=1)
        with pytest.raises(FaultError):
            machine.access(10 * PAGE_SIZE, 8, False)

    def test_fault_handler_invoked_once(self, machine):
        mapped = {}

        def walker(vpn):
            return (), *mapped.get(vpn, (None, False))

        calls = []

        def handler(vaddr, is_write):
            calls.append(vaddr)
            mapped[vaddr // PAGE_SIZE] = (5, True)

        machine.install_context(1, walker, handler)
        machine.access(0, 8, False)
        assert calls == [0]

    def test_unresolved_fault_raises(self, machine):
        machine.install_context(1, lambda v: ((), None, False), lambda a, w: None)
        with pytest.raises(FaultError):
            machine.access(0, 8, False)

    def test_write_to_readonly_invokes_handler(self, machine):
        perms = {"writable": False}

        def walker(vpn):
            return (), vpn, perms["writable"]

        def handler(vaddr, is_write):
            perms["writable"] = True

        machine.install_context(1, walker, handler)
        machine.access(0, 8, is_write=True)  # upgrade via handler

    def test_store_load_value_roundtrip(self, machine):
        install_flat_space(machine)
        machine.store(100, b"kindle")
        assert machine.load(100, 6) == b"kindle"

    def test_store_rejects_empty(self, machine):
        install_flat_space(machine)
        with pytest.raises(ValueError):
            machine.store(0, b"")

    def test_access_size_validation(self, machine):
        install_flat_space(machine)
        with pytest.raises(ValueError):
            machine.access(0, 0, False)


class TestExtensions:
    def test_remap_applied_at_fill(self, machine):
        class Remapper(HardwareExtension):
            def remap_pfn(self, m, vpn, pfn):
                return pfn + 1

        machine.attach_extension(Remapper())
        install_flat_space(machine)
        entry = machine.translate(0, False)
        assert entry.pfn == 1

    def test_store_routing(self, machine):
        routed = []

        class Router(HardwareExtension):
            def route_store(self, m, entry, vaddr, line):
                routed.append(line)
                return line + 1000

        machine.attach_extension(Router())
        install_flat_space(machine)
        machine.access(0, 8, is_write=True)
        assert routed
        # The routed line landed in the cache instead of the original.
        assert machine.l1.contains(routed[0] + 1000)
        assert not machine.l1.contains(routed[0])

    def test_llc_miss_hook(self, machine):
        misses = []

        class Sniffer(HardwareExtension):
            def on_llc_miss(self, m, entry, line, is_write):
                misses.append(line)

        machine.attach_extension(Sniffer())
        install_flat_space(machine)
        machine.access(0, 8, False)
        machine.access(0, 8, False)  # hit, no new miss
        assert len(misses) >= 1


class TestBulkOps:
    def test_bulk_lines_advances_clock(self, machine):
        machine.bulk_lines(100, MemType.NVM, is_write=True)
        assert machine.clock > 0
        assert machine.stats["bulk.nvm.write_lines"] == 100

    def test_bulk_zero_is_free(self, machine):
        machine.bulk_lines(0, MemType.DRAM, False)
        assert machine.clock == 0

    def test_bulk_negative_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.bulk_lines(-1, MemType.DRAM, False)

    def test_nvm_bulk_write_costs_most(self, machine):
        costs = {}
        for mem_type in (MemType.DRAM, MemType.NVM):
            for is_write in (False, True):
                m = Machine(small_machine_config())
                m.bulk_lines(64, mem_type, is_write)
                costs[(mem_type, is_write)] = m.clock
        assert costs[(MemType.NVM, True)] == max(costs.values())

    def test_copy_page_moves_bytes_and_charges(self, machine):
        machine.physmem.write(0, b"abc")
        machine.copy_page(0, 5)
        assert machine.physmem.read(5 * PAGE_SIZE, 3) == b"abc"
        assert machine.stats["pages.copied"] == 1
        assert machine.clock > 0


class TestPowerFailure:
    def test_power_fail_clears_volatile_state(self, machine):
        install_flat_space(machine)
        machine.store(0, b"x")
        clock_before = machine.power_fail() or machine.clock
        assert machine.l1.resident_lines() == 0
        assert len(machine.tlb) == 0
        assert machine.walker is None
        assert not machine.powered
        # The clock is monotonic across power cycles.
        assert machine.clock == clock_before

    def test_extension_notified(self, machine):
        events = []

        class Ext(HardwareExtension):
            def on_power_cycle(self, m):
                events.append("off")

        machine.attach_extension(Ext())
        machine.power_fail()
        assert events == ["off"]

    def test_timers_cleared(self, machine):
        machine.timers.arm(100, lambda: None)
        machine.power_fail()
        assert len(machine.timers) == 0

    def test_power_on(self, machine):
        machine.power_fail()
        machine.power_on()
        assert machine.powered
        assert machine.stats["power.boots"] >= 1
