"""The batch replay engine: vectorized run detection and commit.

Equivalence argument — L1-resident fast runs
--------------------------------------------

A *fast-committable run* is a maximal stretch of operations that each

* fit in one cache line (``vaddr % CACHE_LINE + size <= CACHE_LINE``),
* translate through a TLB-resident entry (writable when the op writes),
* hit the L1 (the line is resident at run start), and
* execute in user mode with the fast path enabled and no extensions.

During such a run the scalar path performs only commutative
bookkeeping: per-op ``tlb.hit``/``l1.hit``/``ops.*`` counter bumps, a
fixed clock advance of ``op_base + l1_hit_latency`` cycles, an LRU
refresh of the touched TLB entry and L1 line, and a dirty-bit merge on
writes.  None of it changes *membership* of any structure, so residency
checked at run start holds for the whole run, and the final LRU state
depends only on each key's **last** access position (untouched keys
keep their relative order ahead of touched ones).  The batch kernel
therefore commits the run as: counter increments of the run totals, one
batched clock advance, and one ordered :meth:`Tlb.touch_run` /
:meth:`Cache.touch_run` per structure.

Equivalence argument — miss runs
--------------------------------

Ops that miss the L1 change structure membership (fills, victim
evictions, open-row switches, write-buffer drains), so a precomputed
mask cannot stay valid across them.  The miss-run kernel
(:meth:`BatchReplayer._miss_run`) instead *interprets* the scalar
sequence op by op against the live hardware structures — the same set
dicts, open-row dicts and drain deque the scalar path mutates, obtained
once through :meth:`Machine.miss_run_view` — while deferring everything
that is only *observable at run end* to a single commit:

* stat counters accumulate in locals and land as guarded bulk adds
  (``Cache.commit_run``, ``MemoryChannel.read_run``/``write_run``,
  ``HybridMemoryController.read_run``/``write_run``,
  ``NvmWriteBuffer.commit_run``); guarded, because a zero-valued add
  would create counter keys the scalar replay never creates;
* the clock advances once (``machine.clock = base + cycles``); every
  point where the scalar path *reads* the clock mid-op (the write
  buffer's ``enqueue(now)``) receives ``base + cycles`` at exactly the
  scalar read point;
* TLB insertions from inline page walks are staged in a ``pending``
  dict that participates in LRU/eviction decisions (combined order =
  untouched entries, then pending, exactly the scalar dict order) and
  are materialized into real :class:`TlbEntry` objects at commit — so a
  thrashing run only constructs the entries that survive it;
* the TLB micro-cache and each channel's ``last_row_hit`` are restored
  at commit to what the scalar sequence would have left behind.

TLB misses walk inline.  The installed walker returns a pure *walk
record* — the page-table entry addresses it reads plus the translation
(see :data:`repro.arch.machine.Walker`) — so the kernel calls it once
per miss and decides before charging anything: a faulting or
write-protected translation breaks to scalar with the op untouched, so
the scalar retry never sees a half-executed op.  A clean record's entry
reads then run through the same line interpreter as the data line
(``_line``, the inline :meth:`Machine.phys_line_access`), with every
counter, cycle and write-buffer enqueue deferred exactly like data
traffic, in the scalar order: ``op_base``, the entry reads, the TLB
fill, the data line.

Timers are the coupling to the clock: the scalar loop fires due timers
after every op, so both kinds of run are truncated at the op whose
batched clock advance first reaches the earliest armed deadline.  All
deferred state is committed *before* the callbacks fire — so a callback
that resets row buffers, drains the write buffer (persist barrier),
power-cycles the controller or switches contexts acts on fully
synchronized structures, all of which are cleared in place — and the
kernel returns afterwards, forcing a fresh probe before anything else
commits (mid-run invalidation hazards cannot leak into a stale run).

Everything else — faults, protection upgrades, multi-line and
page-crossing ops, os-mode execution, attached extensions, installed
persist hooks, TLB misses under a replaced eviction hook — falls back
to the scalar :meth:`Machine.access` path op by op, which is
definitionally equivalent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.machine import LINES_PER_PAGE, Machine
from repro.arch.tlb import TlbEntry
from repro.common.units import CACHE_LINE, PAGE_SIZE
from repro.prep.trace import PackedTrace

#: Operations analyzed per vectorized precheck pass.
DEFAULT_CHUNK = 8192

#: Scalar run-ahead while the next op is ineligible: starts small so a
#: cold-start warmup flips to batch mode quickly, doubles while
#: re-probes stay ineligible so miss-heavy traces pay a bounded number
#: of prechecks per chunk.
_MIN_SCALAR_SPAN = 32
_MAX_SCALAR_SPAN = 4096  # repro: allow-geometry(op-count span cap, not a byte size)

#: Ops handed to the miss-run kernel per call: starts small (short runs
#: — e.g. traffic traces where most stretches are L1-resident — should
#: not pay full-chunk slicing), doubles while the kernel consumes whole
#: blocks, resets when a run breaks early.
_MIN_KERNEL_BLOCK = 64
_MAX_KERNEL_BLOCK = DEFAULT_CHUNK

#: A kernel run shorter than this is treated like an ineligible probe
#: for span pacing: interleaved workloads with only occasional miss ops
#: should stay on the scalar ladder instead of ping-ponging into the
#: kernel for a handful of ops at a time.
_MIN_KERNEL_RUN = 8

#: _probe_one outcomes.
_PROBE_SCALAR = 0  #: not committable: scalar Machine.access fallback
_PROBE_KERNEL = 1  #: committable by the miss-run kernel
_PROBE_FAST = 2  #: TLB- and L1-resident: vectorized fast-run path

_LINE_MASK = np.uint64(CACHE_LINE - 1)
_PAGE_MASK = np.uint64(PAGE_SIZE - 1)
_PAGE_SHIFT = np.uint64(PAGE_SIZE.bit_length() - 1)
_LINE_SHIFT = np.uint64(CACHE_LINE.bit_length() - 1)
_LINES_PER_PAGE = np.uint64(LINES_PER_PAGE)


class _Unbacked(Exception):
    """A line outside physical memory: the kernel stops the run and the
    scalar path raises on the op."""


#: A scalar trace operation, as built by the bench scenarios.
Op = Tuple[int, int, bool]


class BatchReplayer:
    """Replays a trace against one machine in vectorized batches.

    The replayer owns no simulated state — it is a pure execution
    strategy over the machine's own TLB/cache/controller structures —
    so interleaving :meth:`replay` calls with direct ``machine.access``
    calls is safe.

    ``batched_ops`` / ``scalar_ops`` count how the trace actually
    executed (they are engine-local diagnostics, deliberately *not*
    machine stats: the stats dump must stay byte-identical to a scalar
    replay).
    """

    def __init__(self, machine: Machine, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be positive: {chunk}")
        self.machine = machine
        self.chunk = chunk
        self.batched_ops = 0
        self.scalar_ops = 0
        # Scalar run-ahead length, persisted across chunks so an
        # entirely-scalar trace converges to one precheck per span
        # instead of restarting the doubling ladder every chunk.
        self._span = _MIN_SCALAR_SPAN
        # Miss-run kernel block size, adapted the same way.
        self._kernel_block = _MIN_KERNEL_BLOCK
        # Cached miss_run_view tuple (stable for the machine lifetime;
        # see Machine.miss_run_view for why caching is sound).
        self._view: Optional[tuple] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def replay(self, trace: Union[PackedTrace, Sequence[Op]]) -> int:
        """Replay every operation of ``trace``; returns ops replayed."""
        packed = (
            trace
            if isinstance(trace, PackedTrace)
            else PackedTrace.from_ops(trace)
        )
        addr = np.ascontiguousarray(packed.addr, dtype=np.uint64)
        size = np.ascontiguousarray(packed.size, dtype=np.uint64)
        is_write = np.ascontiguousarray(packed.is_write, dtype=bool)
        total = len(addr)
        chunk = self.chunk
        for start in range(0, total, chunk):
            stop = min(total, start + chunk)
            self._replay_chunk(
                addr[start:stop], size[start:stop], is_write[start:stop]
            )
        return total

    # ------------------------------------------------------------------
    # chunk machinery
    # ------------------------------------------------------------------

    def _replay_chunk(
        self, addr: np.ndarray, size: np.ndarray, is_write: np.ndarray
    ) -> None:
        machine = self.machine
        count = len(addr)
        if not machine._fast_ok or machine._mode_stack:  # noqa: SLF001
            # Extensions attached / fast path off / os mode: the whole
            # chunk is scalar by definition; skip the precheck entirely.
            self._scalar_span(addr, size, is_write, 0, count)
            return
        # Plain-python columns for the miss-run kernel, converted once
        # per chunk on first use (the values are immutable, so they stay
        # valid however state evolves).
        addr_list: Optional[List[int]] = None
        write_list: Optional[List[bool]] = None
        single_list: Optional[List[bool]] = None
        base = 0
        while base < count:
            # Cheap scalar probe of the next op first: it decides which
            # engine (scalar span / miss-run kernel / vectorized fast
            # path) consumes the front of the remainder.
            probe = self._probe_one(
                int(addr[base]), int(size[base]), bool(is_write[base])
            )
            if probe == _PROBE_SCALAR:
                stop = min(count, base + self._span)
                self._scalar_span(addr, size, is_write, base, stop)
                base = stop
                self._span = min(self._span * 2, _MAX_SCALAR_SPAN)
                continue
            if probe == _PROBE_KERNEL:
                if addr_list is None:
                    addr_list = addr.tolist()
                    write_list = is_write.tolist()
                    single_list = (
                        ((addr & _LINE_MASK) + size <= CACHE_LINE)
                        & (size > 0)
                    ).tolist()
                stop = min(count, base + self._kernel_block)
                consumed, fired = self._miss_run(
                    addr_list[base:stop],
                    write_list[base:stop],
                    single_list[base:stop],
                )
                requested = stop - base
                base += consumed
                if consumed == requested:
                    # Whole block consumed: the run is still going.
                    self._kernel_block = min(
                        self._kernel_block * 2, _MAX_KERNEL_BLOCK
                    )
                    self._span = _MIN_SCALAR_SPAN
                    continue
                self._kernel_block = _MIN_KERNEL_BLOCK
                if fired:
                    # Timer callbacks may have mutated anything; the
                    # next iteration re-probes from scratch.
                    self._span = _MIN_SCALAR_SPAN
                    continue
                # The kernel broke on a hazard (fault, protection
                # upgrade, multi-line op): the op at the break point
                # needs the scalar path.
                stop = min(count, base + self._span)
                self._scalar_span(addr, size, is_write, base, stop)
                base = stop
                if consumed < _MIN_KERNEL_RUN:
                    self._span = min(self._span * 2, _MAX_SCALAR_SPAN)
                else:
                    self._span = _MIN_SCALAR_SPAN
                continue
            # _PROBE_FAST: vectorized eligibility + fast-run commits.
            mask, key, line = self._eligibility(
                addr[base:], size[base:], is_write[base:]
            )
            remaining = count - base
            cursor = 0
            fired = False
            # Consume verified True runs.  Fast commits refresh LRU
            # order and merge dirty bits but never change TLB/L1
            # *membership*, so the mask stays valid across commits — it
            # goes stale only when a scalar op, a kernel run, or a timer
            # callback executes.
            while cursor < remaining and mask[cursor]:
                run_end = cursor + 1
                while run_end < remaining and mask[run_end]:
                    run_end += 1
                while cursor < run_end:
                    consumed, fired = self._commit(
                        key[cursor:run_end],
                        line[cursor:run_end],
                        is_write[base + cursor : base + run_end],
                    )
                    cursor += consumed
                    if fired:
                        break
                if fired:
                    break
            base += cursor
            if fired:
                self._span = _MIN_SCALAR_SPAN
                continue
            if cursor >= remaining:
                break
            if cursor == 0:
                # Defensive: the probe said fast but the mask disagreed
                # (unreachable today — both test the same structures).
                stop = min(count, base + self._span)
                self._scalar_span(addr, size, is_write, base, stop)
                base = stop
                self._span = min(self._span * 2, _MAX_SCALAR_SPAN)
                continue
            # A fast run just ended at an op that is no longer
            # L1-resident; re-probe to pick the next engine.
            self._span = _MIN_SCALAR_SPAN

    def _scalar_span(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        is_write: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Replay ``[start, stop)`` through the scalar access path."""
        access = self.machine.access
        for vaddr, nbytes, write in zip(
            addr[start:stop].tolist(),
            size[start:stop].tolist(),
            is_write[start:stop].tolist(),
        ):
            access(vaddr, nbytes, write)
        self.scalar_ops += stop - start

    def _probe_one(self, vaddr: int, nbytes: int, is_write: bool) -> int:
        """Classify the next op: scalar fallback, miss-run kernel, or
        the vectorized fast path.

        Mirrors the per-op eligibility tests of both batch engines at
        dict-probe cost, so the expensive vectorized precheck only runs
        when the front op would actually take the fast path.
        """
        machine = self.machine
        if not machine._fast_ok or machine._mode_stack:  # noqa: SLF001
            return _PROBE_SCALAR
        if nbytes <= 0 or vaddr % CACHE_LINE + nbytes > CACHE_LINE:
            return _PROBE_SCALAR
        key = vaddr // PAGE_SIZE | machine._asid_base  # noqa: SLF001
        entry = machine.tlb._entries.get(key)  # noqa: SLF001 - hot path
        if entry is None:
            # TLB miss: only the kernel can proceed, by walking inline —
            # which needs a clean translation, the stock eviction hook
            # and no persist hook (crash injection must see every
            # scalar persist event).
            if (
                machine.persist_hook is not None
                or machine.walker is None
                or machine.tlb.on_evict != machine._tlb_evict_hook  # noqa: SLF001
            ):
                return _PROBE_SCALAR
            _, pfn, writable = machine.walker(vaddr // PAGE_SIZE)
            if pfn is None or (is_write and not writable):
                return _PROBE_SCALAR
            return _PROBE_KERNEL
        if is_write and not entry.writable:
            return _PROBE_SCALAR
        line = entry.pfn * LINES_PER_PAGE + vaddr % PAGE_SIZE // CACHE_LINE
        l1_sets = machine._l1_sets  # noqa: SLF001 - hot path
        if line in l1_sets[line % machine._l1_nsets]:  # noqa: SLF001
            return _PROBE_FAST
        if machine.persist_hook is not None:
            # L1 misses can write back to NVM; those must emit scalar
            # persist events when an injector is attached.
            return _PROBE_SCALAR
        return _PROBE_KERNEL

    # ------------------------------------------------------------------
    # miss-run kernel
    # ------------------------------------------------------------------

    def _bind_view(self) -> tuple:
        """Flatten :meth:`Machine.miss_run_view` into the positional
        tuple the kernel unpacks (cached; every container is mutated in
        place by its owner, never replaced)."""
        view = self.machine.miss_run_view()
        (
            dram_rows, dram_row_size, dram_banks,
            dram_read_hit, dram_read_miss, dram_write_hit, dram_write_miss,
        ) = view["dram_view"]
        (
            nvm_rows, nvm_row_size, nvm_banks,
            nvm_read_hit, nvm_read_miss, nvm_write_hit, nvm_write_miss,
        ) = view["nvm_view"]
        drains, wb_capacity, insert_cycles = view["buffer_view"]
        op_base = view["op_base_cycles"]
        self._view = (
            view["tlb"], view["tlb_entries"], view["tlb_capacity"],
            view["l1"], view["l2"], view["llc"],
            view["l1_sets"], view["l1_nsets"], view["l1_assoc"],
            view["l2_sets"], view["l2_nsets"], view["l2_assoc"],
            view["llc_sets"], view["llc_nsets"], view["llc_assoc"],
            view["l1_hit_latency"],
            view["l2_hit_latency"],
            view["llc_hit_latency"],
            view["controller"], view["dram_channel"], view["nvm_channel"],
            dram_rows, dram_row_size, dram_banks,
            dram_read_hit, dram_read_miss, dram_write_hit, dram_write_miss,
            nvm_rows, nvm_row_size, nvm_banks,
            nvm_read_hit, nvm_read_miss, nvm_write_hit, nvm_write_miss,
            view["write_buffer"], drains, wb_capacity, insert_cycles,
            view["page_writes"], view["page_row_misses"], view["page_shift"],
            view["dram_base"], view["nvm_base"], view["mem_end"],
            view["counters"], view["timer_heap"], op_base,
        )
        return self._view

    def _miss_run(
        self,
        addrs: List[int],
        writes: List[bool],
        singles: List[bool],
    ) -> Tuple[int, bool]:
        """Execute a run of ops through the inlined miss path.

        Consumes ops until a hazard (see the module docstring's
        fallback taxonomy) or the earliest timer deadline; commits all
        deferred state, then fires any due timers.  Returns
        ``(ops consumed, timers fired)``.
        """
        machine = self.machine
        view = self._view
        if view is None:
            view = self._bind_view()
        (
            tlb, entries, tlb_capacity,
            l1, l2, llc,
            l1_sets, l1_nsets, l1_assoc,
            l2_sets, l2_nsets, l2_assoc,
            llc_sets, llc_nsets, llc_assoc,
            l1_latency, l2_latency, llc_latency,
            controller, dram_channel, nvm_channel,
            dram_rows, dram_row_size, dram_banks,
            dram_read_hit, dram_read_miss, dram_write_hit, dram_write_miss,
            nvm_rows, nvm_row_size, nvm_banks,
            nvm_read_hit, nvm_read_miss, nvm_write_hit, nvm_write_miss,
            write_buffer, drains, wb_capacity, insert_cycles,
            page_writes, page_row_misses, page_shift,
            dram_base, nvm_base, mem_end,
            counters, heap, op_base,
        ) = view
        asid = machine.asid
        asid_base = machine._asid_base  # noqa: SLF001 - hot path
        imon = machine._imon  # noqa: SLF001 - hot path
        # A replaced eviction hook needs the scalar TLB insert path, so
        # TLB misses break to scalar then.
        walker = (
            machine.walker
            if tlb.on_evict == machine._tlb_evict_hook  # noqa: SLF001
            else None
        )
        # Without a monitor watching evictions, staged TLB entries can
        # be deferred tuples — only survivors get materialized.  With a
        # monitor, victims must be real entries at note_tlb_evict time.
        defer_entries = imon is None
        clock_base = machine.clock
        last_drain_end = write_buffer._last_drain_end  # noqa: SLF001
        deadline = heap[0][0] - clock_base if heap else None

        cycles = 0
        consumed = 0
        last_key = 0
        #: Staged TLB activity: every op's key ends up here (moved real
        #: entries, or walk fills as (pfn, writable, vpn) tuples).  The
        #: combined LRU order is ``entries`` then ``pending``, matching
        #: the scalar dict exactly; evictions pop the combined head.
        pending: dict = {}
        n_tlb_hit = n_tlb_miss = n_tlb_evict = n_walks = 0
        n_l1_hit = n_l1_miss = n_l1_evict = 0
        n_l2_hit = n_l2_miss = n_l2_evict = 0
        n_llc_hit = n_llc_miss = n_llc_evict = 0
        n_dram_reads = n_nvm_reads = 0
        n_dram_writes = n_nvm_writes = 0
        dram_r_hit = dram_r_miss = dram_w_hit = dram_w_miss = 0
        nvm_r_hit = nvm_r_miss = nvm_w_hit = nvm_w_miss = 0
        n_writebacks = n_buffered = n_full_stalls = 0
        n_write_ops = 0
        #: Final row-buffer outcome per channel (None = untouched).
        dram_last_hit: Optional[bool] = None
        nvm_last_hit: Optional[bool] = None

        def _writeback(victim_line: int) -> None:
            """Dirty victim to memory — inline Machine._writeback."""
            nonlocal cycles, n_writebacks, n_dram_writes, n_nvm_writes
            nonlocal dram_w_hit, dram_w_miss, nvm_w_hit, nvm_w_miss
            nonlocal dram_last_hit, nvm_last_hit
            nonlocal last_drain_end, n_buffered, n_full_stalls
            addr = victim_line * CACHE_LINE
            if addr >= nvm_base:
                n_nvm_writes += 1
                page = addr >> page_shift
                page_writes[page] = page_writes.get(page, 0) + 1
                row = addr // nvm_row_size
                bank = row % nvm_banks
                hit = nvm_rows.get(bank) == row
                nvm_rows[bank] = row
                if hit:
                    nvm_w_hit += 1
                    latency = nvm_write_hit
                else:
                    nvm_w_miss += 1
                    latency = nvm_write_miss
                nvm_last_hit = hit
                # Write-buffer enqueue at the scalar clock read point.
                now = clock_base + cycles
                while drains and drains[0] <= now:
                    drains.popleft()
                stall = 0
                if len(drains) >= wb_capacity:
                    stall = drains.popleft() - now
                    n_full_stalls += 1
                drain_start = now + stall
                if last_drain_end > drain_start:
                    drain_start = last_drain_end
                last_drain_end = drain_start + latency
                drains.append(last_drain_end)
                n_buffered += 1
                if imon is not None:
                    nvm_channel.last_row_hit = hit
                    imon.note_device(addr, True)
                cycles += stall + insert_cycles
            else:
                n_dram_writes += 1
                row = addr // dram_row_size
                bank = row % dram_banks
                hit = dram_rows.get(bank) == row
                dram_rows[bank] = row
                if hit:
                    dram_w_hit += 1
                    latency = dram_write_hit
                else:
                    dram_w_miss += 1
                    latency = dram_write_miss
                dram_last_hit = hit
                if imon is not None:
                    dram_channel.last_row_hit = hit
                    imon.note_device(addr, False)
                cycles += latency
            n_writebacks += 1

        def _line(line: int, w: bool) -> None:
            """One line through the hierarchy — inline
            Machine.phys_line_access, shared by data and walk reads."""
            nonlocal cycles, n_l1_hit, n_l1_miss, n_l1_evict
            nonlocal n_l2_hit, n_l2_miss, n_l2_evict
            nonlocal n_llc_hit, n_llc_miss, n_llc_evict
            nonlocal n_dram_reads, n_nvm_reads, dram_last_hit, nvm_last_hit
            nonlocal dram_r_hit, dram_r_miss, nvm_r_hit, nvm_r_miss
            set1 = l1_sets[line % l1_nsets]
            if line in set1:
                set1[line] = set1.pop(line) or w
                n_l1_hit += 1
                cycles += l1_latency
                return
            n_l1_miss += 1
            set2 = l2_sets[line % l2_nsets]
            if line in set2:
                set2[line] = set2.pop(line)
                n_l2_hit += 1
                cycles += l2_latency
            else:
                n_l2_miss += 1
                set3 = llc_sets[line % llc_nsets]
                if line in set3:
                    set3[line] = set3.pop(line)
                    n_llc_hit += 1
                    cycles += llc_latency
                else:
                    n_llc_miss += 1
                    addr = line * CACHE_LINE
                    if addr >= nvm_base:
                        if addr >= mem_end:
                            raise _Unbacked
                        n_nvm_reads += 1
                        row = addr // nvm_row_size
                        bank = row % nvm_banks
                        hit = nvm_rows.get(bank) == row
                        nvm_rows[bank] = row
                        if hit:
                            nvm_r_hit += 1
                            latency = nvm_read_hit
                        else:
                            nvm_r_miss += 1
                            latency = nvm_read_miss
                            page = addr >> page_shift
                            page_row_misses[page] = (
                                page_row_misses.get(page, 0) + 1
                            )
                        nvm_last_hit = hit
                        if imon is not None:
                            nvm_channel.last_row_hit = hit
                            imon.note_device(addr, True)
                    else:
                        if addr < dram_base:
                            raise _Unbacked
                        n_dram_reads += 1
                        row = addr // dram_row_size
                        bank = row % dram_banks
                        hit = dram_rows.get(bank) == row
                        dram_rows[bank] = row
                        if hit:
                            dram_r_hit += 1
                            latency = dram_read_hit
                        else:
                            dram_r_miss += 1
                            latency = dram_read_miss
                        dram_last_hit = hit
                        if imon is not None:
                            dram_channel.last_row_hit = hit
                            imon.note_device(addr, False)
                    cycles += llc_latency + latency
                    # Fill LLC (inline Machine._fill_llc).
                    if len(set3) >= llc_assoc:
                        victim_line = next(iter(set3))
                        victim_dirty = set3.pop(victim_line)
                        n_llc_evict += 1
                        set3[line] = False
                        victim_dirty = (
                            l1_sets[victim_line % l1_nsets].pop(
                                victim_line, False
                            )
                            or victim_dirty
                        )
                        victim_dirty = (
                            l2_sets[victim_line % l2_nsets].pop(
                                victim_line, False
                            )
                            or victim_dirty
                        )
                        if victim_dirty:
                            _writeback(victim_line)
                        if imon is not None:
                            imon.note_llc_fill(line, victim_line)
                    else:
                        set3[line] = False
                        if imon is not None:
                            imon.note_llc_fill(line, None)
                # Fill L2 (inline Machine._fill_l2).
                if len(set2) >= l2_assoc:
                    victim_line = next(iter(set2))
                    victim_dirty = set2.pop(victim_line)
                    n_l2_evict += 1
                    set2[line] = False
                    victim_dirty = (
                        l1_sets[victim_line % l1_nsets].pop(
                            victim_line, False
                        )
                        or victim_dirty
                    )
                    if victim_dirty:
                        vset = llc_sets[victim_line % llc_nsets]
                        if victim_line in vset:
                            vset[victim_line] = True
                        else:
                            _writeback(victim_line)
                else:
                    set2[line] = False
            # Fill L1 (inline Machine._fill_l1).
            if len(set1) >= l1_assoc:
                victim_line = next(iter(set1))
                victim_dirty = set1.pop(victim_line)
                n_l1_evict += 1
                set1[line] = w
                if victim_dirty:
                    vset = l2_sets[victim_line % l2_nsets]
                    if victim_line in vset:
                        vset[victim_line] = True
                    else:
                        vset = llc_sets[victim_line % llc_nsets]
                        if victim_line in vset:
                            vset[victim_line] = True
                        else:
                            _writeback(victim_line)
            else:
                set1[line] = w

        try:
            for vaddr, w, ok in zip(addrs, writes, singles):
                if not ok:
                    break  # multi-line / page-crossing / zero-size op
                vpn = vaddr // PAGE_SIZE
                key = asid_base | vpn
                entry = entries.get(key)
                if entry is not None:
                    if w and not entry.writable:
                        break  # protection upgrade: scalar fault path
                    pfn = entry.pfn
                    n_tlb_hit += 1
                    # LRU refresh: a touched real entry moves behind the
                    # staged ones (the combined MRU end).
                    del entries[key]
                    pending[key] = entry
                    cycles += op_base
                else:
                    staged = pending.get(key)
                    if staged is not None:
                        if type(staged) is tuple:
                            pfn = staged[0]
                            if w and not staged[1]:
                                break
                        else:
                            pfn = staged.pfn
                            if w and not staged.writable:
                                break
                        n_tlb_hit += 1
                        pending[key] = pending.pop(key)
                        cycles += op_base
                    else:
                        if walker is None:
                            break
                        pte_paddrs, pfn, writable = walker(vpn)
                        if pfn is None or (w and not writable):
                            # Fault / protection upgrade: break before
                            # charging anything — the scalar path then
                            # executes the op (and its walks) whole.
                            break
                        # Scalar order: op_base, the walk's entry reads,
                        # the TLB fill, then the data line.
                        cycles += op_base
                        if pte_paddrs:
                            for paddr in pte_paddrs:
                                _line(paddr // CACHE_LINE, False)
                            n_walks += 1
                        n_tlb_miss += 1
                        if len(entries) + len(pending) >= tlb_capacity:
                            if entries:
                                victim = entries.pop(next(iter(entries)))
                            else:
                                victim = pending.pop(next(iter(pending)))
                            n_tlb_evict += 1
                            if imon is not None:
                                imon.note_tlb_evict(victim)
                        if defer_entries:
                            pending[key] = (pfn, writable, vpn)
                        else:
                            pending[key] = TlbEntry(
                                vpn, pfn, writable, asid=asid
                            )
                _line(
                    pfn * LINES_PER_PAGE + vaddr % PAGE_SIZE // CACHE_LINE, w
                )
                if w:
                    n_write_ops += 1
                last_key = key
                consumed += 1
                if deadline is not None and cycles >= deadline:
                    break  # timer due: commit, then fire at the boundary
        except _Unbacked:
            pass  # the scalar path raises on this op

        if not consumed:
            return 0, False

        # ---- commit: all deferred state lands before any callback ----
        if defer_entries:
            for staged_key, staged in pending.items():
                entries[staged_key] = (
                    TlbEntry(staged[2], staged[0], staged[1], asid=asid)
                    if type(staged) is tuple
                    else staged
                )
        else:
            entries.update(pending)
        tlb.sync_mru(last_key)
        if n_tlb_hit:
            counters["tlb.hit"] += n_tlb_hit
        if n_tlb_miss:
            counters["tlb.miss"] += n_tlb_miss
        if n_tlb_evict:
            counters["tlb.evictions"] += n_tlb_evict
        if n_walks:
            counters["walk.completed"] += n_walks
        l1.commit_run(n_l1_hit, n_l1_miss, n_l1_evict)
        l2.commit_run(n_l2_hit, n_l2_miss, n_l2_evict)
        llc.commit_run(n_llc_hit, n_llc_miss, n_llc_evict)
        if n_write_ops:
            counters["ops.writes"] += n_write_ops
        if consumed - n_write_ops:
            counters["ops.reads"] += consumed - n_write_ops
        if n_writebacks:
            counters["cache.writebacks"] += n_writebacks
        machine.clock = clock_base + cycles
        counters["cycles.user"] += cycles
        controller.read_run(n_nvm_reads, n_dram_reads)
        controller.write_run(n_nvm_writes, n_dram_writes)
        dram_channel.read_run(dram_r_hit, dram_r_miss)
        dram_channel.write_run(dram_w_hit, dram_w_miss)
        nvm_channel.read_run(nvm_r_hit, nvm_r_miss)
        nvm_channel.write_run(nvm_w_hit, nvm_w_miss)
        if dram_last_hit is not None:
            dram_channel.end_run(dram_last_hit)
        if nvm_last_hit is not None:
            nvm_channel.end_run(nvm_last_hit)
        if n_nvm_writes:
            write_buffer.commit_run(last_drain_end, n_buffered, n_full_stalls)
        self.batched_ops += consumed
        fired = 0
        if heap and heap[0][0] <= machine.clock:
            fired = machine.timers.fire_due(machine._read_clock)  # noqa: SLF001
        return consumed, bool(fired)

    # ------------------------------------------------------------------
    # vectorized fast-run path
    # ------------------------------------------------------------------

    def _eligibility(
        self, addr: np.ndarray, size: np.ndarray, is_write: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized precheck: which ops are fast-committable *right
        now*.

        Returns ``(mask, key, line)``; ``key``/``line`` values are only
        meaningful where ``mask`` is set.
        """
        machine = self.machine
        count = len(addr)
        if not machine._fast_ok or machine._mode_stack:  # noqa: SLF001
            zeros = np.zeros(count, dtype=np.uint64)
            return np.zeros(count, dtype=bool), zeros, zeros
        entries = machine.tlb._entries  # noqa: SLF001 - hot path
        if not entries:
            zeros = np.zeros(count, dtype=np.uint64)
            return np.zeros(count, dtype=bool), zeros, zeros
        # Set-index / tag extraction, in bulk.
        line_offset = addr & _LINE_MASK
        single = (line_offset + size <= CACHE_LINE) & (size > 0)
        key = (addr >> _PAGE_SHIFT) | np.uint64(machine._asid_base)  # noqa: SLF001
        # Translation residency: snapshot the TLB (at most ``entries``
        # config slots, typically 64) into sorted arrays once, then
        # binary-search every op against it — no per-op dict probes.
        tlb_keys = np.fromiter(entries.keys(), dtype=np.uint64, count=len(entries))
        tlb_pfns = np.fromiter(
            (entry.pfn for entry in entries.values()),
            dtype=np.uint64,
            count=len(entries),
        )
        tlb_writable = np.fromiter(
            (entry.writable for entry in entries.values()),
            dtype=bool,
            count=len(entries),
        )
        tlb_order = np.argsort(tlb_keys)
        tlb_keys = tlb_keys[tlb_order]
        slot = np.minimum(
            np.searchsorted(tlb_keys, key), len(tlb_keys) - 1
        )
        resident = tlb_keys[slot] == key
        mask = single & resident & (tlb_writable[tlb_order][slot] | ~is_write)
        line = tlb_pfns[tlb_order][slot] * _LINES_PER_PAGE + (
            (addr & _PAGE_MASK) >> _LINE_SHIFT
        )
        # L1 residency, probed once per unique candidate line.
        candidates = np.flatnonzero(mask)
        if len(candidates):
            unique_lines, line_inverse = np.unique(
                line[candidates], return_inverse=True
            )
            l1_sets = machine._l1_sets  # noqa: SLF001 - hot path
            l1_nsets = machine._l1_nsets  # noqa: SLF001 - hot path
            l1_resident = np.fromiter(
                (
                    cached in l1_sets[cached % l1_nsets]
                    for cached in unique_lines.tolist()
                ),
                dtype=bool,
                count=len(unique_lines),
            )
            mask[candidates] &= l1_resident[line_inverse]
        return mask, key, line

    def _commit(
        self, key: np.ndarray, line: np.ndarray, is_write: np.ndarray
    ) -> Tuple[int, bool]:
        """Commit a verified fast run; returns ``(ops, timers fired)``.

        The run is truncated at the op whose batched clock advance first
        reaches the earliest armed timer deadline, mirroring the scalar
        loop's post-op timer check exactly.
        """
        machine = self.machine
        per_op_cycles = machine._fast_cycles  # noqa: SLF001 - hot path
        heap = machine._timer_heap  # noqa: SLF001 - hot path
        length = len(key)
        if heap:
            gap = heap[0][0] - machine.clock
            # Ops until the batched clock first reaches the deadline;
            # at least one op always commits (the scalar loop, too,
            # replays the op before checking timers).
            length = min(length, max(1, -(-gap // per_op_cycles)))
            key = key[:length]
            line = line[:length]
            is_write = is_write[:length]
        counters = machine._counters  # noqa: SLF001 - hot path
        writes = int(np.count_nonzero(is_write))
        counters["tlb.hit"] += length
        counters[machine._l1_hit_key] += length  # noqa: SLF001 - hot path
        # Guarded: an all-read (or all-write) run must not create the
        # other key at zero — scalar replay never would.
        if writes:
            counters["ops.writes"] += writes
        if length - writes:
            counters["ops.reads"] += length - writes
        cycles = length * per_op_cycles
        machine.clock += cycles
        counters["cycles.user"] += cycles
        # L1 LRU refresh + dirty merge: unique lines in last-access
        # order, each merged with "was any access in the run a write".
        # One unique pass over the reversed run yields both the sorted
        # unique lines and each line's last-access position (the first
        # occurrence in the reversed view).
        unique_lines, rev_first, rev_inverse = np.unique(
            line[::-1], return_index=True, return_inverse=True
        )
        inverse = rev_inverse[::-1]
        wrote = (
            np.bincount(inverse[is_write], minlength=len(unique_lines)) > 0
        )
        order = np.argsort(length - 1 - rev_first)
        machine.l1.touch_run(
            unique_lines[order].tolist(), wrote[order].tolist()
        )
        # TLB LRU refresh: unique translation keys in last-access order.
        unique_keys, key_last = np.unique(key[::-1], return_index=True)
        key_order = np.argsort(length - 1 - key_last)
        machine.tlb.touch_run(unique_keys[key_order].tolist())
        self.batched_ops += length
        fired = 0
        if heap and heap[0][0] <= machine.clock:
            fired = machine.timers.fire_due(machine._read_clock)  # noqa: SLF001
        return length, bool(fired)


def replay_batch(
    machine: Machine,
    trace: Union[PackedTrace, Sequence[Op]],
    chunk: int = DEFAULT_CHUNK,
) -> BatchReplayer:
    """Replay ``trace`` on ``machine`` in batch mode; returns the
    replayer (whose ``batched_ops``/``scalar_ops`` describe the split)."""
    replayer = BatchReplayer(machine, chunk=chunk)
    replayer.replay(trace)
    return replayer
