"""Memory channel timing models.

Two channels sit behind the LLC: a DRAM channel (DDR4-2400) and an NVM
channel (PCM, timing after Song et al. [39]).  Each models per-bank open
rows, so consecutive accesses within an 8 KiB row pay the row-hit
latency.  The NVM channel additionally models the 48-entry write buffer
from Table I: buffered writes complete at insert cost and drain in the
background at device write latency; when the buffer is full the
requester stalls until a slot drains.

The replay CPU is in-order and blocking, so device occupancy from
demand reads is implicit (one outstanding miss at a time); the write
buffer is where queueing genuinely changes results, because PCM write
latency is ~10x read latency and checkpoint/consistency machinery is
write-heavy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict  # noqa: F401 (Dict used in annotations)

from repro.common import units
from repro.common.config import MemTimingConfig, NvmBufferConfig
from repro.common.stats import Stats
from repro.common.units import cycles_from_ns


class MemoryChannel:
    """One memory technology behind an open-row bank model."""

    def __init__(
        self,
        timing: MemTimingConfig,
        stats: Stats,
        name: str,
        banks: int = 16,
    ) -> None:
        self.timing = timing
        self.stats = stats
        self.name = name
        self.banks = banks
        self._open_rows: Dict[int, int] = {}
        #: Row-buffer outcome of the most recent access, for callers
        #: tracking per-page locality (the RBLA policy, after [49]).
        #: False until the first access — policies may legitimately poll
        #: it before any traffic has been issued.
        self.last_row_hit = False
        self._read_hit = cycles_from_ns(timing.read_row_hit_ns)
        self._read_miss = cycles_from_ns(timing.read_row_miss_ns)
        self._write_hit = cycles_from_ns(timing.write_row_hit_ns)
        self._write_miss = cycles_from_ns(timing.write_row_miss_ns)
        self._row_size = timing.row_size
        self._counters = stats.counters
        self._read_row_hit_key = f"{name}.read_row_hit"
        self._read_row_miss_key = f"{name}.read_row_miss"
        self._write_row_hit_key = f"{name}.write_row_hit"
        self._write_row_miss_key = f"{name}.write_row_miss"

    def _row_lookup(self, addr: int) -> bool:
        """Open the row containing ``addr``; True if it was already open."""
        row = addr // self._row_size
        bank = row % self.banks
        hit = self._open_rows.get(bank) == row
        self._open_rows[bank] = row
        self.last_row_hit = hit
        return hit

    def read_latency(self, addr: int) -> int:
        """Cycles for a demand line read at ``addr``."""
        if self._row_lookup(addr):
            self._counters[self._read_row_hit_key] += 1
            return self._read_hit
        self._counters[self._read_row_miss_key] += 1
        return self._read_miss

    def write_latency(self, addr: int) -> int:
        """Cycles for a line write at ``addr`` hitting the device array."""
        if self._row_lookup(addr):
            self._counters[self._write_row_hit_key] += 1
            return self._write_hit
        self._counters[self._write_row_miss_key] += 1
        return self._write_miss

    def reset_rows(self) -> None:
        """Close all rows (power cycle); the row-hit flag starts over too."""
        self._open_rows.clear()
        self.last_row_hit = False


class NvmWriteBuffer:
    """The NVM controller's write buffer (48 entries, Table I).

    Writes enqueue at a small insert cost and drain serially at device
    write latency.  ``enqueue`` returns the latency visible to the
    requester: the insert cost, plus any stall waiting for a free slot.
    """

    #: Cost of landing a write into an SRAM buffer slot.
    INSERT_NS = 15.0

    def __init__(self, capacity: int, channel: MemoryChannel, stats: Stats) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self.channel = channel
        self.stats = stats
        self._counters = stats.counters
        self._insert_cycles = cycles_from_ns(self.INSERT_NS)
        #: Completion times of in-flight drains, oldest first.
        self._drains: Deque[int] = deque()
        self._last_drain_end = 0

    def _reap(self, now: int) -> None:
        while self._drains and self._drains[0] <= now:
            self._drains.popleft()

    def enqueue(self, addr: int, now: int) -> int:
        """Accept a line write at cycle ``now``; return observed latency."""
        self._reap(now)
        stall = 0
        if len(self._drains) >= self.capacity:
            # Wait for the oldest drain to complete, freeing a slot.
            stall = self._drains.popleft() - now
            self._counters["nvm.write_buffer_full"] += 1
        drain_start = max(now + stall, self._last_drain_end)
        drain_end = drain_start + self.channel.write_latency(addr)
        self._drains.append(drain_end)
        self._last_drain_end = drain_end
        self._counters["nvm.buffered_writes"] += 1
        return stall + self._insert_cycles

    def drain_all(self, now: int) -> int:
        """Block until every buffered write has reached the device.

        Models the tail of a persist barrier (sfence after clwb): the
        caller cannot proceed until the NVM controller's queue is empty.
        Returns the stall in cycles.
        """
        self._reap(now)
        if not self._drains:
            return 0
        stall = max(0, self._last_drain_end - now)
        self._drains.clear()
        self.stats.add("nvm.drain_barriers")
        return stall

    @property
    def occupancy(self) -> int:
        return len(self._drains)

    def reset(self) -> None:
        """Power cycle: in-flight contents are gone (hence they must be
        drained *before* a crash for data to be durable)."""
        self._drains.clear()
        self._last_drain_end = 0


class HybridMemoryController:
    """Front-end that routes line requests to the DRAM or NVM channel.

    Tracks per-page NVM write counts: PCM cells endure a bounded number
    of SET/RESET cycles, so write skew — which pages absorb the
    persistence machinery's traffic — is a first-order design concern
    (see :meth:`wear_report`).
    """

    def __init__(
        self,
        dram_timing: MemTimingConfig,
        nvm_timing: MemTimingConfig,
        buffers: NvmBufferConfig,
        stats: Stats,
    ) -> None:
        self.stats = stats
        self.dram = MemoryChannel(dram_timing, stats, "dram")
        self.nvm = MemoryChannel(nvm_timing, stats, "nvm")
        self.nvm_write_buffer = NvmWriteBuffer(
            buffers.write_buffer_entries, self.nvm, stats
        )
        self.read_buffer_entries = buffers.read_buffer_entries
        #: NVM page -> line writes that reached the device (wear).
        self.nvm_page_writes: Dict[int, int] = {}
        #: NVM page -> demand-read row-buffer misses (row locality; the
        #: RBLA migration policy [49] ranks pages by this).
        self.nvm_page_row_misses: Dict[int, int] = {}
        # Wear/locality accounting is per page, so the shift must follow
        # the configured page size (read at construction time, so tests
        # can patch ``repro.common.units.PAGE_SIZE``), not a 4K literal.
        page_size = units.PAGE_SIZE
        self._page_shift = page_size.bit_length() - 1
        if 1 << self._page_shift != page_size:
            raise ValueError(f"PAGE_SIZE must be a power of two: {page_size}")
        self._counters = stats.counters

    def read(self, addr: int, is_nvm: bool, now: int) -> int:
        """Demand line read; returns latency in cycles."""
        if is_nvm:
            self._counters["nvm.reads"] += 1
            latency = self.nvm.read_latency(addr)
            if not self.nvm.last_row_hit:
                page = addr >> self._page_shift
                self.nvm_page_row_misses[page] = (
                    self.nvm_page_row_misses.get(page, 0) + 1
                )
            return latency
        self._counters["dram.reads"] += 1
        return self.dram.read_latency(addr)

    def write(self, addr: int, is_nvm: bool, now: int) -> int:
        """Line write (writeback or streaming store); returns latency."""
        if is_nvm:
            self._counters["nvm.writes"] += 1
            page = addr >> self._page_shift
            self.nvm_page_writes[page] = self.nvm_page_writes.get(page, 0) + 1
            return self.nvm_write_buffer.enqueue(addr, now)
        self._counters["dram.writes"] += 1
        # DRAM writes are posted: the write queue in a DDR4 controller
        # absorbs them; charge the row activity cost only.
        return self.dram.write_latency(addr)

    def persist_barrier(self, now: int) -> int:
        """Stall until all buffered NVM writes are durable."""
        return self.nvm_write_buffer.drain_all(now)

    def power_cycle(self) -> None:
        """Close rows and discard buffered (volatile) writes.

        Wear counters survive: cell wear is physical, not state.
        """
        self.dram.reset_rows()
        self.nvm.reset_rows()
        self.nvm_write_buffer.reset()

    def wear_report(self, top: int = 10) -> Dict[str, object]:
        """NVM endurance summary: totals, skew and the hottest pages."""
        writes = self.nvm_page_writes
        if not writes:
            return {
                "pages_written": 0,
                "total_line_writes": 0,
                "max_page_writes": 0,
                "mean_page_writes": 0.0,
                "skew": 0.0,
                "hottest_pages": [],
            }
        total = sum(writes.values())
        peak = max(writes.values())
        mean = total / len(writes)
        hottest = sorted(writes.items(), key=lambda kv: kv[1], reverse=True)
        return {
            "pages_written": len(writes),
            "total_line_writes": total,
            "max_page_writes": peak,
            "mean_page_writes": mean,
            #: max/mean: 1.0 means perfectly level wear.
            "skew": peak / mean,
            "hottest_pages": hottest[:top],
        }
