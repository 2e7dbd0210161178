"""The simulated platform: core, TLB, caches, memory, timers, hooks.

:class:`Machine` is the moral equivalent of a configured gem5 system.
It owns the global cycle clock and every piece of hardware state, and
exposes exactly three ways to spend time:

* :meth:`access` — one application memory operation, replayed through
  the TLB, the page-table walker, the cache hierarchy and the hybrid
  memory controller (the high-fidelity path);
* :meth:`bulk_lines` / :meth:`copy_page` — analytic cost accounting for
  kernel bulk work (checkpoint traversals, page copies) that would be
  prohibitively slow to simulate line by line in pure Python;
* :meth:`advance` — raw cycle charge for fixed-cost activities.

Cycles are attributed to the *mode* the machine is in: user mode by
default, or an OS category entered with :meth:`os_region` — this is how
the HSCC study separates hardware from OS migration activity (Fig. 6)
and how Table VI splits page selection from page copy.

A power failure (:meth:`power_fail`) drops every volatile structure:
cache contents, TLB, MSRs, open rows, buffered NVM writes, armed
timers, and DRAM frame contents.  NVM frame contents survive.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.arch.cache import Cache
from repro.arch.hooks import HardwareExtension
from repro.arch.msr import MsrFile
from repro.arch.tlb import Tlb, TlbEntry
from repro.common.config import MachineConfig
from repro.common.errors import FaultError
from repro.common.stats import Stats
from repro.common.timers import TimerWheel
from repro.common.units import CACHE_LINE, PAGE_SIZE, cycles_from_ns
from repro.mem.controller import HybridMemoryController
from repro.mem.hybrid import HybridLayout, MemType
from repro.mem.physmem import PhysicalMemory

#: ``walker(vpn) -> (pte_paddrs, pfn, writable)`` — the hardware
#: page-table walk for the current address space, as a pure *walk
#: record*: the physical addresses of the page-table entries the walk
#: reads, in order (ending at the aborting entry on a fault), then the
#: translation (``pfn`` is ``None`` when the walk faults).  A walker
#: charges nothing and has no side effects; the machine charges the
#: entry reads itself.  Premapped spaces return ``((), pfn, writable)``.
WalkRecord = Tuple[Sequence[int], Optional[int], bool]
Walker = Callable[[int], WalkRecord]

#: ``fault_handler(vaddr, is_write)`` — OS demand-paging entry point.
FaultHandler = Callable[[int, bool], None]

#: Fixed cost of a clwb instruction issue.
CLWB_ISSUE_CYCLES = 5

#: Lines that fit in one device row (row_size // line size) is computed
#: per channel; pipelining factors model memory-level parallelism for
#: streaming kernel operations.
BULK_READ_PIPELINE = 4
BULK_DRAM_WRITE_PIPELINE = 4
#: NVM drains serialize at the device, so bulk NVM writes get no
#: overlap: this is what makes write-heavy persistence machinery pay.
BULK_NVM_WRITE_PIPELINE = 1

#: CPU work per line moved in a kernel bulk loop (load/store/loop ALU).
BULK_CPU_CYCLES_PER_LINE = 2

#: Cache lines per page (used by the replay fast path).
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE


class Machine:
    """A configured simulated platform (see module docstring)."""

    def __init__(
        self, config: Optional[MachineConfig] = None, stats: Optional[Stats] = None
    ) -> None:
        self.config = config or MachineConfig()
        self.stats = stats or Stats()
        self.layout = HybridLayout(self.config.layout)
        self.physmem = PhysicalMemory(self.layout)
        self.controller = HybridMemoryController(
            self.config.dram, self.config.nvm, self.config.nvm_buffers, self.stats
        )
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.llc = Cache(self.config.llc)
        self.tlb = Tlb(self.config.tlb, self.stats)
        self.tlb.on_evict = self._tlb_evict_hook
        self.msr = MsrFile()
        self.timers = TimerWheel()
        self.extensions: List[HardwareExtension] = []
        #: Persist-boundary hook: ``hook(kind, detail)`` called on every
        #: durable NVM write event — ``"bulk"`` (streamed kernel write,
        #: detail = line count), ``"clwb"`` / ``"wb"`` (one line reaching
        #: the NVM write buffer, detail = line number), ``"fence"``
        #: (persist barrier), ``"label"`` (explicit protocol boundary,
        #: detail = name) and ``"power_fail"``.  Installed by
        #: :class:`repro.faults.CrashInjector`; ``None`` (the default)
        #: costs one attribute test per event and nothing else.
        self.persist_hook = None
        #: Cross-process interference monitor (``None`` = disabled): a
        #: pure observer notified on LLC victim fills, device accesses
        #: and TLB capacity evictions.  It never charges cycles or
        #: mutates hardware state, and unlike a HardwareExtension it
        #: does NOT disable the replay fast path — its hooks sit only
        #: on miss paths, which the fast path never takes, so golden
        #: equivalence is untouched.  See repro.arch.interference.
        self._imon = None
        self.clock = 0
        self.powered = True
        self.asid = 0
        self.walker: Optional[Walker] = None
        self.fault_handler: Optional[FaultHandler] = None
        #: (category, charge, counter key) stack; empty means user mode.
        self._mode_stack: List[Tuple[str, bool, str]] = []
        self._lines_per_row = self.config.dram.row_size // CACHE_LINE
        self._read_clock = lambda: self.clock
        # --- replay hot path ------------------------------------------
        # access() runs hundreds of thousands of times per experiment;
        # everything it needs is pinned here so the common op costs a
        # handful of dict operations instead of a method-call chain.
        # The references stay valid for the machine's lifetime: Stats
        # resets clear the counter dict in place, Cache.drop_all clears
        # the set dicts in place, and TimerWheel.clear empties the heap
        # list in place.
        self._counters = self.stats.counters
        self._fast_path = True
        #: Collapsed precondition for the inline path: fast path on AND
        #: no extensions attached (kept in sync by attach_extension /
        #: set_fast_path so access() tests one flag, not three).
        self._fast_ok = True
        #: ``asid << 40`` of the installed context (TLB key prefix).
        self._asid_base = 0
        self._op_base_cycles = self.config.op_base_cycles
        self._l1_hit_latency = self.config.l1.hit_latency
        self._l2_hit_latency = self.config.l2.hit_latency
        self._llc_hit_latency = self.config.llc.hit_latency
        self._fast_cycles = self._op_base_cycles + self._l1_hit_latency
        # Cache geometry and stat keys for phys_line_access; the set
        # lists are the caches' own (Cache.drop_all clears them in place).
        self._l1_sets = self.l1._sets  # noqa: SLF001 - hot path
        self._l1_nsets = self.l1.num_sets
        self._l1_assoc = self.l1.assoc
        self._l1_hit_key = self.l1._hit_key  # noqa: SLF001 - hot path
        self._l1_miss_key = self.l1._miss_key  # noqa: SLF001 - hot path
        self._l1_evictions_key = self.l1._evictions_key  # noqa: SLF001
        self._l2_sets = self.l2._sets  # noqa: SLF001 - hot path
        self._l2_nsets = self.l2.num_sets
        self._l2_assoc = self.l2.assoc
        self._l2_hit_key = self.l2._hit_key  # noqa: SLF001 - hot path
        self._l2_miss_key = self.l2._miss_key  # noqa: SLF001 - hot path
        self._l2_evictions_key = self.l2._evictions_key  # noqa: SLF001
        self._llc_sets = self.llc._sets  # noqa: SLF001 - hot path
        self._llc_nsets = self.llc.num_sets
        self._llc_assoc = self.llc.assoc
        self._llc_hit_key = self.llc._hit_key  # noqa: SLF001 - hot path
        self._llc_miss_key = self.llc._miss_key  # noqa: SLF001 - hot path
        self._llc_evictions_key = self.llc._evictions_key  # noqa: SLF001
        self._timer_heap = self.timers._heap  # noqa: SLF001 - hot path

    # ------------------------------------------------------------------
    # mode and time
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def os_region(self, category: str, charge: bool = True) -> Iterator[None]:
        """Attribute cycles spent inside to ``cycles.os.<category>``.

        With ``charge=False`` the work inside still *happens* (state
        mutates, costs are tallied under ``uncharged.os.<category>``)
        but the clock does not move — this is how the HSCC baseline
        models "hardware migration activities only" (Fig. 6).
        """
        # The counter key is formatted once per region entry instead of
        # once per advance() inside it (bulk loops advance thousands of
        # times per region).
        key = f"cycles.os.{category}" if charge else f"uncharged.os.{category}"
        self._mode_stack.append((category, charge, key))
        try:
            yield
        finally:
            self._mode_stack.pop()

    def advance(self, cycles: int) -> None:
        """Spend ``cycles`` in the current mode."""
        if cycles < 0:
            raise ValueError(f"cannot advance by negative cycles: {cycles}")
        if not self._mode_stack:
            self.clock += cycles
            self._counters["cycles.user"] += cycles
            return
        _category, charge, key = self._mode_stack[-1]
        if charge:
            self.clock += cycles
            self._counters[key] += cycles
            self._counters["cycles.os.total"] += cycles
        else:
            self._counters[key] += cycles

    @property
    def in_os_mode(self) -> bool:
        return bool(self._mode_stack)

    # ------------------------------------------------------------------
    # hardware extensions
    # ------------------------------------------------------------------

    def attach_extension(self, extension: HardwareExtension) -> None:
        self.extensions.append(extension)
        # Extensions hook stores and LLC misses, so ops must take the
        # general path.
        self._fast_ok = False

    def detach_extension(self, extension: HardwareExtension) -> None:
        """Detach a previously attached extension.

        The inverse of :meth:`attach_extension`: when the last extension
        leaves, the inline fast path is restored (honoring any explicit
        :meth:`set_fast_path` choice, in either call order).  Mutating
        ``machine.extensions`` directly skips this bookkeeping and
        strands the machine on the slow path permanently.

        Raises :class:`ValueError` if the extension is not attached.
        """
        try:
            self.extensions.remove(extension)
        except ValueError:
            raise ValueError(
                f"{type(extension).__name__} is not attached to this machine"
            ) from None
        if not self.extensions:
            self._fast_ok = self._fast_path

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle the inline replay fast path (the golden-equivalence
        test runs the same trace both ways; results must be identical)."""
        self._fast_path = enabled
        self._fast_ok = enabled and not self.extensions

    def _tlb_evict_hook(self, entry: TlbEntry) -> None:
        if self._imon is not None:
            self._imon.note_tlb_evict(entry.asid)
        for ext in self.extensions:
            ext.on_tlb_evict(self, entry)

    def install_interference_monitor(self, monitor) -> None:
        """Attach a cross-process interference monitor (pure observer;
        one at a time — installing replaces any previous monitor)."""
        monitor.bind(self)
        self._imon = monitor

    def clear_interference_monitor(self) -> None:
        self._imon = None

    # ------------------------------------------------------------------
    # physical path
    # ------------------------------------------------------------------

    def phys_line_access(
        self,
        paddr: int,
        is_write: bool,
        entry: Optional[TlbEntry] = None,
    ) -> None:
        """One line-granularity access through L1, L2, the LLC and memory.

        The one implementation of the cache hierarchy's line path: the
        scalar replay, page-walk entry reads and the batch engine's
        miss-run kernel all send lines through here.  A miss fills every
        level it missed (the hierarchy is inclusive); a dirty victim
        lands dirty in the next level that still holds it, or goes to
        memory.  Cycles are charged in the current mode as they accrue,
        because the NVM write buffer reads the clock at each enqueue.
        """
        line = paddr // CACHE_LINE
        counters = self._counters
        # Probe: the number of levels that miss, and the latency.
        set1 = self._l1_sets[line % self._l1_nsets]
        if line in set1:
            set1[line] = set1.pop(line) or is_write
            counters[self._l1_hit_key] += 1
            cycles = self._l1_hit_latency
            missed = 0
        else:
            counters[self._l1_miss_key] += 1
            set2 = self._l2_sets[line % self._l2_nsets]
            if line in set2:
                set2[line] = set2.pop(line)
                counters[self._l2_hit_key] += 1
                cycles = self._l2_hit_latency
                missed = 1
            else:
                counters[self._l2_miss_key] += 1
                set3 = self._llc_sets[line % self._llc_nsets]
                if line in set3:
                    set3[line] = set3.pop(line)
                    counters[self._llc_hit_key] += 1
                    cycles = self._llc_hit_latency
                    missed = 2
                else:
                    # Demand miss all the way to memory.
                    counters[self._llc_miss_key] += 1
                    for ext in self.extensions:
                        ext.on_llc_miss(self, entry, line, is_write)
                    is_nvm = self.layout.mem_type_of_addr(paddr) is MemType.NVM
                    cycles = self._llc_hit_latency + self.controller.read(
                        paddr, is_nvm, self.clock
                    )
                    if self._imon is not None:
                        self._imon.note_device(paddr, is_nvm)
                    missed = 3
        # Charge before filling: victim writebacks read the clock.
        if self._mode_stack:
            self.advance(cycles)
        else:
            self.clock += cycles
            counters["cycles.user"] += cycles
        if not missed:
            return
        llc_sets = self._llc_sets
        if missed > 1:
            if missed == 3:
                self._fill_llc(line)
            # Fill L2; its victim leaves L1 too (inclusion).
            if len(set2) >= self._l2_assoc:
                victim = next(iter(set2))
                victim_dirty = set2.pop(victim)
                counters[self._l2_evictions_key] += 1
                victim_dirty = (
                    self._l1_sets[victim % self._l1_nsets].pop(victim, False)
                    or victim_dirty
                )
                if victim_dirty:
                    victim_set = llc_sets[victim % self._llc_nsets]
                    if victim in victim_set:
                        victim_set[victim] = True
                    else:
                        self._writeback(victim)
            set2[line] = False
        # Fill L1; a dirty victim lands in L2, else the LLC, else memory
        # (inclusion can be broken below by page-teardown invalidations).
        if len(set1) >= self._l1_assoc:
            victim = next(iter(set1))
            victim_dirty = set1.pop(victim)
            counters[self._l1_evictions_key] += 1
            if victim_dirty:
                victim_set = self._l2_sets[victim % self._l2_nsets]
                if victim not in victim_set:
                    victim_set = llc_sets[victim % self._llc_nsets]
                if victim in victim_set:
                    victim_set[victim] = True
                else:
                    self._writeback(victim)
        set1[line] = is_write

    def _writeback(self, line: int, _kind: str = "wb") -> None:
        """Send a dirty victim line to memory."""
        addr = line * CACHE_LINE
        is_nvm = self.layout.mem_type_of_addr(addr) is MemType.NVM
        if is_nvm and self.persist_hook is not None:
            self.persist_hook(_kind, line)
        latency = self.controller.write(addr, is_nvm, self.clock)
        if self._imon is not None:
            self._imon.note_device(addr, is_nvm)
        self.advance(latency)
        self._counters["cache.writebacks"] += 1

    def _fill_llc(self, line: int) -> None:
        """Install an absent ``line`` in the LLC.  Its victim leaves L1
        and L2 too (inclusion) and is written back if dirty anywhere."""
        cache_set = self._llc_sets[line % self._llc_nsets]
        victim = None
        if len(cache_set) >= self._llc_assoc:
            victim = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim)
            self._counters[self._llc_evictions_key] += 1
        cache_set[line] = False
        if victim is not None:
            victim_dirty = self.l1.invalidate(victim) or victim_dirty
            victim_dirty = self.l2.invalidate(victim) or victim_dirty
            if victim_dirty:
                self._writeback(victim)
        if self._imon is not None:
            self._imon.note_llc_fill(line, victim)

    def prefetch_line(self, paddr: int) -> bool:
        """Install a line in the LLC off the critical path.

        Used by prefetcher extensions: the fill's device traffic is
        counted (stats) but no core cycles are charged — the demand
        stream continues unstalled.  Returns True if a fill happened.
        """
        try:
            is_nvm = self.layout.mem_type_of_addr(paddr) is MemType.NVM
        except FaultError:
            self.stats.add("prefetch.out_of_range")
            return False
        line = paddr // CACHE_LINE
        if self.llc.contains(line):
            self.stats.add("prefetch.redundant")
            return False
        self.stats.add("prefetch.issued")
        self.stats.add("prefetch.nvm" if is_nvm else "prefetch.dram")
        # The device read and any victim writebacks are off the
        # critical path (time tracked under uncharged.os.prefetch, but
        # the memory traffic itself is counted like any other).
        with self.os_region("prefetch", charge=False):
            self.advance(self.controller.read(paddr, is_nvm, self.clock))
            self._fill_llc(line)
        return True

    def clwb(self, paddr: int) -> bool:
        """Write back (without invalidating) one line if dirty anywhere.

        Returns True if a writeback was issued.  Always costs the
        instruction issue; the memory write is charged only when the
        line was actually dirty.
        """
        line = paddr // CACHE_LINE
        self.advance(CLWB_ISSUE_CYCLES)
        dirty = self.l1.clean(line)
        dirty = self.l2.clean(line) or dirty
        dirty = self.llc.clean(line) or dirty
        if dirty:
            self._writeback(line, _kind="clwb")
            self.stats.add("clwb.writebacks")
        self.stats.add("clwb.issued")
        return dirty

    def persist_barrier(self) -> None:
        """sfence-to-durability: stall until the NVM write buffer drains."""
        if self.persist_hook is not None:
            # Emitted before the drain: a crash here means writes issued
            # since the previous fence never became durable.
            self.persist_hook("fence", None)
        stall = self.controller.persist_barrier(self.clock)
        self.advance(stall)
        self.stats.add("persist_barriers")

    def persist_point(self, label: str) -> None:
        """Declare a named durability boundary in a persistence protocol.

        The checkpoint/recovery machinery calls this between the durable
        NVM write that makes a state transition permanent and the
        in-memory bookkeeping that assumes it happened; a crash injected
        at the point therefore models the transition *not* having
        reached NVM.  Free when no hook is installed.
        """
        if self.persist_hook is not None:
            self.persist_hook("label", label)

    def clwb_virtual(self, vaddr: int, size: int) -> int:
        """clwb every line covering ``[vaddr, vaddr+size)`` (user-space
        persist path: translate, then write back).  Returns lines
        actually written back."""
        if size <= 0:
            raise ValueError("clwb_virtual needs a positive size")
        written = 0
        addr = vaddr
        remaining = size
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - (addr % PAGE_SIZE))
            entry = self.translate(addr, False)
            first = (addr % PAGE_SIZE) // CACHE_LINE
            last = ((addr % PAGE_SIZE) + chunk - 1) // CACHE_LINE
            page_base = entry.pfn * PAGE_SIZE
            for line_index in range(first, last + 1):
                if self.clwb(page_base + line_index * CACHE_LINE):
                    written += 1
            remaining -= chunk
            addr += chunk
        return written

    def flush_page_lines(self, pfn: int) -> int:
        """clwb every line of a page (HSCC page copy, SSP consolidation).

        Returns the number of lines actually written back.
        """
        base_line = pfn * (PAGE_SIZE // CACHE_LINE)
        written = 0
        for offset in range(PAGE_SIZE // CACHE_LINE):
            if self.clwb((base_line + offset) * CACHE_LINE):
                written += 1
        return written

    def invalidate_page_lines(self, pfn: int) -> None:
        """Drop all cached copies of a page without writeback (teardown)."""
        base_line = pfn * (PAGE_SIZE // CACHE_LINE)
        for offset in range(PAGE_SIZE // CACHE_LINE):
            line = base_line + offset
            self.l1.invalidate(line)
            self.l2.invalidate(line)
            self.llc.invalidate(line)

    # ------------------------------------------------------------------
    # virtual path (the replay CPU)
    # ------------------------------------------------------------------

    def install_context(
        self,
        asid: int,
        walker: Walker,
        fault_handler: Optional[FaultHandler],
    ) -> None:
        """Point the hardware at a new address space (context switch).

        ``walker`` returns a walk record (see :data:`Walker`); every
        caller — the scalar path here, the batch engine's probe and its
        miss-run kernel — reads the record and charges its page-table
        entry reads through the cache hierarchy itself, so the walker
        may be called any number of times without changing results.
        """
        self.asid = asid
        self._asid_base = asid << 40
        self.walker = walker
        self.fault_handler = fault_handler

    def _walk(self, vpn: int) -> WalkRecord:
        """Walk ``vpn`` and charge the record's entry reads."""
        record = self.walker(vpn)
        pte_paddrs, pfn, _writable = record
        if pte_paddrs:
            for paddr in pte_paddrs:
                self.phys_line_access(paddr, is_write=False)
            self._counters["walk.aborted" if pfn is None else "walk.completed"] += 1
        return record

    def _walk_and_fill(self, vaddr: int, is_write: bool) -> TlbEntry:
        if self.walker is None:
            raise FaultError("no address space installed")
        vpn = vaddr // PAGE_SIZE
        _, pfn, writable = self._walk(vpn)
        attempts = 0
        while pfn is None or (is_write and not writable):
            if self.fault_handler is None:
                raise FaultError(
                    f"unhandled page fault at {vaddr:#x} "
                    f"({'write' if is_write else 'read'})"
                )
            attempts += 1
            if attempts > 2:
                raise FaultError(f"fault handler did not resolve {vaddr:#x}")
            self.fault_handler(vaddr, is_write)
            _, pfn, writable = self._walk(vpn)
        for ext in self.extensions:
            pfn = ext.remap_pfn(self, vpn, pfn)
        entry = TlbEntry(vpn=vpn, pfn=pfn, writable=writable, asid=self.asid)
        for ext in self.extensions:
            ext.on_tlb_fill(self, entry)
        self.tlb.insert(entry)
        return entry

    def translate(self, vaddr: int, is_write: bool) -> TlbEntry:
        """TLB lookup with hardware walk + demand paging on miss."""
        vpn = vaddr // PAGE_SIZE
        entry = self.tlb.lookup(self.asid, vpn)
        if entry is None:
            entry = self._walk_and_fill(vaddr, is_write)
        elif is_write and not entry.writable:
            # Protection upgrade goes through the OS, then re-walk.
            self.tlb.invalidate(self.asid, vpn)
            entry = self._walk_and_fill(vaddr, is_write)
        return entry

    def access(self, vaddr: int, size: int, is_write: bool) -> None:
        """Replay one application memory operation.

        Splits at page boundaries, translates per page, routes stores
        through extension hooks (SSP shadow routing), then performs
        line-granularity cache accesses.  Fires due timers afterwards.

        The overwhelmingly common op — single line, user mode, no
        extensions, translation in the TLB micro-cache, line resident in
        the L1 — is committed inline: one batched clock advance and four
        counter bumps.  Every step of that inline path commutes with the
        general path's ordering (no clock reads happen before the final
        timer check), so results are bit-identical with the fast path
        disabled (``_fast_path = False``; the golden-equivalence test
        holds the two machines against each other).
        """
        if size <= 0:
            raise ValueError(f"access size must be positive: {size}")
        offset = vaddr % PAGE_SIZE
        if offset % CACHE_LINE + size <= CACHE_LINE:
            if self._fast_ok and not self._mode_stack:
                tlb = self.tlb
                if tlb._mru_key == self._asid_base | (vaddr // PAGE_SIZE):  # noqa: SLF001
                    entry = tlb._mru_entry  # noqa: SLF001 - hot path
                    if entry.writable or not is_write:
                        line = entry.pfn * LINES_PER_PAGE + offset // CACHE_LINE
                        cache_set = self._l1_sets[line % self._l1_nsets]
                        if line in cache_set:
                            cache_set[line] = cache_set.pop(line) or is_write
                            counters = self._counters
                            counters["tlb.hit"] += 1
                            counters[self._l1_hit_key] += 1
                            counters["ops.writes" if is_write else "ops.reads"] += 1
                            cycles = self._fast_cycles
                            self.clock += cycles
                            counters["cycles.user"] += cycles
                            heap = self._timer_heap
                            if heap and heap[0][0] <= self.clock:
                                self.timers.fire_due(self._read_clock)
                            return
            # Single line, but cold somewhere: the full path.
            self.advance(self._op_base_cycles)
            entry = self.translate(vaddr, is_write)
            paddr = entry.pfn * PAGE_SIZE + (offset // CACHE_LINE) * CACHE_LINE
            if is_write and self.extensions:
                for ext in self.extensions:
                    routed = ext.route_store(self, entry, vaddr, paddr // CACHE_LINE)
                    if routed is not None:
                        paddr = routed * CACHE_LINE
                        break
            self.phys_line_access(paddr, is_write, entry)
            self._counters["ops.writes" if is_write else "ops.reads"] += 1
        else:
            self.advance(self._op_base_cycles)
            remaining = size
            addr = vaddr
            while remaining > 0:
                chunk = min(remaining, PAGE_SIZE - (addr % PAGE_SIZE))
                entry = self.translate(addr, is_write)
                page_base = entry.pfn * PAGE_SIZE
                first_line = (addr % PAGE_SIZE) // CACHE_LINE
                last_line = ((addr % PAGE_SIZE) + chunk - 1) // CACHE_LINE
                for line_index in range(first_line, last_line + 1):
                    paddr = page_base + line_index * CACHE_LINE
                    if is_write:
                        for ext in self.extensions:
                            routed = ext.route_store(
                                self, entry, addr, paddr // CACHE_LINE
                            )
                            if routed is not None:
                                paddr = routed * CACHE_LINE
                                break
                    self.phys_line_access(paddr, is_write, entry)
                self._counters["ops.writes" if is_write else "ops.reads"] += 1
                remaining -= chunk
                addr += chunk
        # Inline deadline peek: only enter the timer machinery when a
        # timer is actually due (this runs once per replayed op).
        heap = self._timer_heap
        if heap and heap[0][0] <= self.clock:
            self.timers.fire_due(self._read_clock)

    def load(self, vaddr: int, size: int) -> bytes:
        """Replay a load and return the actual bytes (value fidelity).

        The byte move is split per translated page: virtually contiguous
        pages are *not* physically contiguous in general, so reading
        ``size`` bytes from the first page's frame would pull bytes from
        whatever frame happens to sit next to it.
        """
        chunks = self._span_chunks(vaddr, size, is_write=False)
        self.access(vaddr, size, is_write=False)
        return b"".join(
            self.physmem.read(paddr, chunk) for paddr, chunk in chunks
        )

    def store(self, vaddr: int, data: bytes) -> None:
        """Replay a store carrying real bytes (value fidelity).

        Data pages follow the paper's own assumption (Section II-A):
        heap/stack data in NVM is "consistently maintained ... using
        some existing memory consistency techniques", so values land in
        the physical store immediately; timing still pays the full
        cache/memory path.

        Like :meth:`load`, the byte move is split at every page
        boundary and each chunk goes through its own translation —
        writing ``len(data)`` physically contiguous bytes would corrupt
        the frame physically adjacent to the first page.
        """
        if not data:
            raise ValueError("store needs at least one byte")
        chunks = self._span_chunks(vaddr, len(data), is_write=True)
        self.access(vaddr, len(data), is_write=True)
        pos = 0
        for paddr, chunk in chunks:
            self.physmem.write(paddr, data[pos : pos + chunk])
            pos += chunk

    def _span_chunks(
        self, vaddr: int, size: int, is_write: bool
    ) -> List[Tuple[int, int]]:
        """Translate ``[vaddr, vaddr+size)`` page by page.

        Returns ``(paddr, nbytes)`` per page touched.  Translation
        happens *before* the timed replay (mirroring the hardware, which
        resolves the mapping before the bytes move), so a timer firing
        at the end of :meth:`access` cannot retarget the byte move.
        """
        chunks: List[Tuple[int, int]] = []
        addr = vaddr
        remaining = size
        while remaining > 0:
            offset = addr % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - offset)
            entry = self.translate(addr, is_write)
            chunks.append((entry.pfn * PAGE_SIZE + offset, chunk))
            remaining -= chunk
            addr += chunk
        return chunks

    # ------------------------------------------------------------------
    # analytic bulk path (kernel loops)
    # ------------------------------------------------------------------

    def _bulk_cost(
        self, n_lines: int, mem_type: MemType, is_write: bool
    ) -> int:
        timing = self.config.nvm if mem_type is MemType.NVM else self.config.dram
        if is_write:
            hit = cycles_from_ns(timing.write_row_hit_ns)
            miss = cycles_from_ns(timing.write_row_miss_ns)
            pipeline = (
                BULK_NVM_WRITE_PIPELINE
                if mem_type is MemType.NVM
                else BULK_DRAM_WRITE_PIPELINE
            )
        else:
            hit = cycles_from_ns(timing.read_row_hit_ns)
            miss = cycles_from_ns(timing.read_row_miss_ns)
            pipeline = BULK_READ_PIPELINE
        rows = (n_lines + self._lines_per_row - 1) // self._lines_per_row
        device = n_lines * hit + rows * (miss - hit)
        return device // pipeline + n_lines * BULK_CPU_CYCLES_PER_LINE

    def bulk_lines(self, n_lines: int, mem_type: MemType, is_write: bool) -> None:
        """Charge a streaming kernel loop over ``n_lines`` cache lines.

        Analytic fast path: per-line device cost with row-buffer
        amortization and a memory-level-parallelism factor (reads
        overlap; NVM writes serialize behind the write buffer drain).
        """
        if n_lines < 0:
            raise ValueError(f"negative line count {n_lines}")
        if n_lines == 0:
            return
        if (
            is_write
            and mem_type is MemType.NVM
            and self.persist_hook is not None
        ):
            # One durable-write event per streamed burst, emitted before
            # the burst: a crash at this point means none of it landed.
            self.persist_hook("bulk", n_lines)
        self.advance(self._bulk_cost(n_lines, mem_type, is_write))
        kind = "write" if is_write else "read"
        self.stats.add(f"bulk.{mem_type.value}.{kind}_lines", n_lines)

    def copy_page(self, src_pfn: int, dst_pfn: int, flush_src: bool = True) -> None:
        """Kernel page copy: optional clwb of the source, stream read +
        stream write, and the actual byte move."""
        lines = PAGE_SIZE // CACHE_LINE
        src_type = self.layout.mem_type_of_pfn(src_pfn)
        dst_type = self.layout.mem_type_of_pfn(dst_pfn)
        if flush_src:
            self.flush_page_lines(src_pfn)
            self.persist_barrier()
        self.bulk_lines(lines, src_type, is_write=False)
        self.bulk_lines(lines, dst_type, is_write=True)
        self.physmem.copy_page(src_pfn, dst_pfn)
        self.stats.add("pages.copied")

    # ------------------------------------------------------------------
    # power
    # ------------------------------------------------------------------

    def power_fail(self) -> None:
        """Drop every volatile structure; NVM frame contents survive."""
        if self.persist_hook is not None:
            # Fault models (torn writes, bit rot) act at the instant the
            # power drops, before volatile state is discarded.
            self.persist_hook("power_fail", None)
        self.l1.drop_all()
        self.l2.drop_all()
        self.llc.drop_all()
        self.tlb.flush()
        self.msr.clear()
        self.controller.power_cycle()
        self.physmem.power_fail()
        self.timers.clear()
        if self._imon is not None:
            self._imon.power_cycle()
        for ext in self.extensions:
            ext.on_power_cycle(self)
        self.walker = None
        self.fault_handler = None
        self.asid = 0
        self._asid_base = 0
        self.powered = False
        self.stats.add("power.failures")

    def power_on(self) -> None:
        """Bring the platform back up (clock keeps running monotonically)."""
        self.powered = True
        self.stats.add("power.boots")
