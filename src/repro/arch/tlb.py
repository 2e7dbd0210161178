"""Data TLB with extension fields for the SSP and HSCC prototypes.

Kindle extends the TLB in gem5: SSP adds a supplementary physical page
and per-line ``updated``/``current`` bitmaps per entry, HSCC adds a page
access count.  :class:`TlbEntry` carries those fields directly; the base
translation machinery ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import TlbConfig
from repro.common.stats import Stats


@dataclass
class TlbEntry:
    """One TLB translation plus prototype extension fields."""

    vpn: int
    pfn: int
    writable: bool = True
    #: SSP: pfn of the shadow (supplementary) physical page.
    shadow_pfn: Optional[int] = None
    #: SSP: bitmap of lines written since the last consistency interval.
    updated_bitmap: int = 0
    #: SSP: bitmap selecting which physical page holds the latest data
    #: per line (0 -> primary, 1 -> shadow).
    current_bitmap: int = 0
    #: HSCC: page access count, incremented on LLC miss.
    access_count: int = 0
    #: HSCC: whether the access count was already written to the PTE in
    #: the current migration interval.
    count_synced: bool = False
    #: Process address-space identifier the entry belongs to.
    asid: int = 0
    ext: Dict[str, int] = field(default_factory=dict)


class Tlb:
    """Fully-associative LRU TLB (64 entries by default)."""

    def __init__(self, config: TlbConfig, stats: Stats) -> None:
        self.config = config
        self.stats = stats
        self._entries: Dict[int, TlbEntry] = {}
        #: Called with the victim entry on every capacity eviction; the
        #: machine routes this to hardware-extension hooks.
        self.on_evict: Optional[Callable[[TlbEntry], None]] = None
        self._counters = stats.counters
        # Translation micro-cache: the last key/entry touched.  The
        # cached key is always the most-recently-used (hence last) key
        # in the LRU dict, so serving it without the pop/reinsert
        # refresh is *exactly* equivalent — the refresh of an MRU key is
        # a no-op.  Every mutation that could break that invariant
        # (insert, invalidate, flush) updates or clears it.
        self._mru_key: Optional[int] = None
        self._mru_entry: Optional[TlbEntry] = None

    @staticmethod
    def _key(asid: int, vpn: int) -> int:
        return (asid << 40) | vpn

    def lookup(self, asid: int, vpn: int) -> Optional[TlbEntry]:
        """Probe; refreshes LRU on hit."""
        key = (asid << 40) | vpn
        if key == self._mru_key:
            self._counters["tlb.hit"] += 1
            return self._mru_entry
        entry = self._entries.get(key)
        if entry is None:
            self._counters["tlb.miss"] += 1
            return None
        self._entries[key] = self._entries.pop(key)
        self._mru_key = key
        self._mru_entry = entry
        self._counters["tlb.hit"] += 1
        return entry

    def insert(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Install an entry; returns the evicted victim, if any."""
        key = self._key(entry.asid, entry.vpn)
        victim: Optional[TlbEntry] = None
        if key not in self._entries and len(self._entries) >= self.config.entries:
            victim_key = next(iter(self._entries))
            victim = self._entries.pop(victim_key)
            if victim_key == self._mru_key:
                self._mru_key = None
                self._mru_entry = None
            self.stats.add("tlb.evictions")
            if self.on_evict is not None:
                self.on_evict(victim)
        self._entries.pop(key, None)
        self._entries[key] = entry
        self._mru_key = key
        self._mru_entry = entry
        return victim

    def sync_mru(self, key: int) -> None:
        """Re-point the micro-cache after a batched miss run.

        The batch kernel maintains the LRU dict directly (per-op
        refresh/insert/evict, exactly as the scalar sequence would) but
        leaves the micro-cache alone until commit; the run's final
        translation is by construction the MRU (last) entry, which is
        the same state the scalar path's last lookup/insert would have
        left behind.  ``key`` must be resident.
        """
        self._mru_key = key
        self._mru_entry = self._entries[key]

    def invalidate(self, asid: int, vpn: int) -> Optional[TlbEntry]:
        """Drop one translation (e.g. after munmap or HSCC migration).

        Unlike capacity evictions, explicit invalidations do not fire
        the eviction hook: the OS initiated them and handles any
        metadata writeback itself.
        """
        key = self._key(asid, vpn)
        if key == self._mru_key:
            self._mru_key = None
            self._mru_entry = None
        return self._entries.pop(key, None)

    def invalidate_asid(self, asid: int) -> List[TlbEntry]:
        """Drop all translations of one address space (context teardown)."""
        self._mru_key = None
        self._mru_entry = None
        doomed = [k for k, e in self._entries.items() if e.asid == asid]
        return [self._entries.pop(k) for k in doomed]

    def flush(self) -> List[TlbEntry]:
        """Drop everything (full TLB shootdown or power cycle)."""
        self._mru_key = None
        self._mru_entry = None
        victims = list(self._entries.values())
        self._entries.clear()
        return victims

    def entries(self) -> List[TlbEntry]:
        """Resident entries, LRU-oldest first."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
