"""Prefetcher extensions: detection, coverage, and end-to-end benefit."""

import pytest

from repro.arch.machine import Machine
from repro.arch.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.common.config import small_machine_config
from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE, PAGE_SIZE


def flat_machine(prefetcher=None):
    machine = Machine(small_machine_config())
    machine.install_context(1, lambda vpn: ((), vpn, True), None)
    if prefetcher is not None:
        machine.attach_extension(prefetcher)
    return machine


class TestPrefetchLine:
    def test_fill_and_redundant(self):
        machine = flat_machine()
        assert machine.prefetch_line(0)
        assert not machine.prefetch_line(0)
        assert machine.stats["prefetch.issued"] == 1
        assert machine.stats["prefetch.redundant"] == 1

    def test_costs_no_core_time(self):
        machine = flat_machine()
        before = machine.clock
        machine.prefetch_line(0)
        assert machine.clock == before

    def test_out_of_range_ignored(self):
        machine = flat_machine()
        assert not machine.prefetch_line(1 << 60)
        assert machine.stats["prefetch.out_of_range"] == 1

    def test_prefetched_line_is_an_llc_hit(self):
        machine = flat_machine()
        machine.prefetch_line(CACHE_LINE)
        machine.access(CACHE_LINE, 8, False)
        assert machine.stats["llc.hit"] >= 1
        assert machine.stats["dram.reads"] == 1  # only the prefetch fill


class TestNextLine:
    def test_degree_validation(self):
        with pytest.raises(ConfigError):
            NextLinePrefetcher(degree=0)

    def test_sequential_scan_mostly_hits(self):
        baseline = flat_machine()
        prefetching = flat_machine(NextLinePrefetcher(degree=4))
        for machine in (baseline, prefetching):
            for i in range(512):
                machine.access(i * CACHE_LINE, 8, False)
        assert prefetching.clock < baseline.clock
        # Demand misses collapse: most lines arrive via prefetch.
        assert (
            prefetching.stats["llc.miss"] < baseline.stats["llc.miss"] / 2
        )


class TestStride:
    def test_detects_constant_stride(self):
        machine = flat_machine(StridePrefetcher(degree=2))
        stride_bytes = 4 * CACHE_LINE
        for i in range(16):
            machine.access(i * stride_bytes, 8, False)
        assert machine.stats["prefetch.issued"] > 0

    def test_random_pattern_prefetches_little(self):
        import random

        rng = random.Random(3)
        machine = flat_machine(StridePrefetcher(degree=2))
        for _ in range(64):
            machine.access(rng.randrange(0, 60) * PAGE_SIZE, 8, False)
        # No stable stride: almost nothing confirmed.
        assert machine.stats["prefetch.issued"] <= 4

    def test_strided_scan_faster_with_prefetcher(self):
        baseline = flat_machine()
        prefetching = flat_machine(StridePrefetcher(degree=4))
        stride = 2 * CACHE_LINE
        for machine in (baseline, prefetching):
            for i in range(512):
                machine.access(i * stride, 8, False)
        assert prefetching.clock < baseline.clock

    def test_table_capacity_bounded(self):
        prefetcher = StridePrefetcher(table_entries=4)
        machine = flat_machine(prefetcher)
        for page in range(16):
            machine.access(page * PAGE_SIZE, 8, False)
        assert len(prefetcher._table) <= 4

    def test_power_cycle_clears_table(self):
        prefetcher = StridePrefetcher()
        machine = flat_machine(prefetcher)
        machine.access(0, 8, False)
        machine.power_fail()
        assert not prefetcher._table
