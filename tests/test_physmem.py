"""Physical memory contents: value fidelity and power-fail semantics."""

import pytest

from repro.common.config import HybridLayoutConfig
from repro.common.errors import FaultError
from repro.common.units import MiB, PAGE_SIZE
from repro.mem.hybrid import HybridLayout, MemType
from repro.mem.physmem import PhysicalMemory


@pytest.fixture
def mem():
    layout = HybridLayout(HybridLayoutConfig(dram_bytes=4 * MiB, nvm_bytes=4 * MiB))
    return PhysicalMemory(layout)


def nvm_pfn(mem, index=0):
    lo, _hi = mem.layout.pfn_range(MemType.NVM)
    return lo + index


class TestReadWrite:
    def test_read_after_write(self, mem):
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_untouched_memory_reads_zero(self, mem):
        assert mem.read(0, 8) == b"\x00" * 8

    def test_write_spanning_pages(self, mem):
        addr = PAGE_SIZE - 2
        mem.write(addr, b"abcd")
        assert mem.read(addr, 4) == b"abcd"

    def test_read_spanning_untouched_page(self, mem):
        mem.write(PAGE_SIZE - 1, b"x")
        assert mem.read(PAGE_SIZE - 2, 3) == b"\x00x\x00"

    def test_out_of_range_write(self, mem):
        with pytest.raises(FaultError):
            mem.write(8 * MiB, b"x")

    def test_negative_read_size(self, mem):
        with pytest.raises(ValueError):
            mem.read(0, -1)


class TestPageOps:
    def test_copy_page(self, mem):
        mem.write(0, b"data")
        mem.copy_page(0, 1)
        assert mem.read(PAGE_SIZE, 4) == b"data"

    def test_copy_untouched_source_zeroes_destination(self, mem):
        mem.write(5 * PAGE_SIZE, b"old")
        mem.copy_page(9, 5)
        assert mem.read(5 * PAGE_SIZE, 3) == b"\x00\x00\x00"

    def test_zero_page(self, mem):
        mem.write(0, b"junk")
        mem.zero_page(0)
        assert mem.read(0, 4) == b"\x00" * 4

    def test_zero_page_clears_the_same_frame_in_place(self, mem):
        mem.write(2 * PAGE_SIZE + PAGE_SIZE - 3, b"end")
        frame = mem._frames[2]  # noqa: SLF001 - identity is the contract
        mem.zero_page(2)
        assert mem._frames[2] is frame  # noqa: SLF001
        assert frame == bytearray(PAGE_SIZE)

    def test_page_snapshot(self, mem):
        assert mem.page_snapshot(3) is None
        mem.write(3 * PAGE_SIZE, b"z")
        snap = mem.page_snapshot(3)
        assert snap[:1] == b"z"
        assert len(snap) == PAGE_SIZE


class TestPowerFail:
    def test_dram_lost(self, mem):
        mem.write(0, b"volatile")
        dropped = mem.power_fail()
        assert dropped == 1
        assert mem.read(0, 8) == b"\x00" * 8

    def test_nvm_survives(self, mem):
        addr = nvm_pfn(mem) * PAGE_SIZE
        mem.write(addr, b"durable")
        mem.power_fail()
        assert mem.read(addr, 7) == b"durable"

    def test_mixed(self, mem):
        nvm_addr = nvm_pfn(mem) * PAGE_SIZE
        mem.write(0, b"d")
        mem.write(nvm_addr, b"n")
        mem.power_fail()
        assert mem.read(0, 1) == b"\x00"
        assert mem.read(nvm_addr, 1) == b"n"

    def test_resident_frames_counts(self, mem):
        mem.write(0, b"a")
        mem.write(nvm_pfn(mem) * PAGE_SIZE, b"b")
        assert mem.resident_frames == 2
        mem.power_fail()
        assert mem.resident_frames == 1
