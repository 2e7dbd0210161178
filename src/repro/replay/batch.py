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
(:meth:`BatchReplayer._miss_run`) therefore runs them on the same line
path as scalar replay: every data line and every page-table-entry read
goes through :meth:`Machine.phys_line_access`, which fills, evicts,
writes back, reads the clock at each write-buffer enqueue and charges
cycles exactly as it does for :meth:`Machine.access`.  Only what is
batch-specific stays in the kernel:

* the op loop itself, charging each op's ``op_base`` cycles before its
  lines, in the scalar order;
* TLB staging: hits and walk fills are kept in a ``pending`` dict that
  takes part in LRU/eviction decisions (combined order = untouched
  entries, then pending, exactly the scalar dict order) and are
  materialized into real :class:`TlbEntry` objects at commit, together
  with the ``tlb.*``, ``walk.completed`` and ``ops.*`` counts — so a
  thrashing run only constructs the entries that survive it.  Nothing
  on the line path reads the TLB, and the interference monitor's
  eviction hook reads only the victim's asid (a staged fill's is the
  current one), so staging is invisible to both;
* timer truncation (below).

TLB misses walk inline.  The installed walker returns a pure *walk
record* — the page-table entry addresses it reads plus the translation
(see :data:`repro.arch.machine.Walker`) — so the kernel calls it once
per miss and decides before charging anything: a faulting or
write-protected translation breaks to scalar with the op untouched, so
the scalar retry never sees a half-executed op.  A clean record is
charged in the scalar order: ``op_base``, the entry reads, the TLB
fill, the data line.  A line outside physical memory raises
:class:`~repro.common.errors.FaultError` from the line path at the
same point as in scalar replay; the kernel commits its staging and
lets the error propagate, so the op is charged once.

Timers are the coupling to the clock: the scalar loop fires due timers
after every op, so both kinds of run are truncated at the op whose
clock advance first reaches the earliest armed deadline.  The staged
TLB state is committed *before* the callbacks fire — so a callback that
flushes the TLB or switches contexts acts on synchronized structures —
and the kernel returns afterwards, forcing a fresh probe before
anything else commits.

Everything else — faults, protection upgrades, multi-line and
page-crossing ops, os-mode execution, attached extensions, installed
persist hooks, TLB misses under a replaced eviction hook — falls back
to the scalar :meth:`Machine.access` path op by op, which is
definitionally equivalent.  A kernel run that breaks on a hazard sends
only that op down the scalar path, then re-probes;
:attr:`BatchReplayer.fallbacks` counts the scalar ops per reason.
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

#: Why an op took the scalar path (:attr:`BatchReplayer.fallbacks`):
#: ``chunk`` — attached extensions or os mode; ``multi_line`` —
#: multi-line, page-crossing or zero-size op; ``fault`` — the walk
#: record has no translation; ``write_protect`` — a write through a
#: read-only translation; ``persist_hook`` — a crash injector is
#: attached; ``no_walker`` — no address space installed, or a replaced
#: TLB eviction hook; ``ladder`` — the ops of a probe's scalar span
#: after its first.
FALLBACK_REASONS = (
    "chunk",
    "multi_line",
    "fault",
    "write_protect",
    "persist_hook",
    "no_walker",
    "ladder",
)

#: _probe_one outcomes besides a fallback reason.
_PROBE_KERNEL = "kernel"  #: committable by the miss-run kernel
_PROBE_FAST = "fast"  #: TLB- and L1-resident: vectorized fast-run path

_LINE_MASK = np.uint64(CACHE_LINE - 1)
_PAGE_MASK = np.uint64(PAGE_SIZE - 1)
_PAGE_SHIFT = np.uint64(PAGE_SIZE.bit_length() - 1)
_LINE_SHIFT = np.uint64(CACHE_LINE.bit_length() - 1)
_LINES_PER_PAGE = np.uint64(LINES_PER_PAGE)


#: A scalar trace operation, as built by the bench scenarios.
Op = Tuple[int, int, bool]


class BatchReplayer:
    """Replays a trace against one machine in vectorized batches.

    The replayer owns no simulated state — it is a pure execution
    strategy over the machine's own TLB/cache/controller structures —
    so interleaving :meth:`replay` calls with direct ``machine.access``
    calls is safe.

    ``batched_ops`` / ``scalar_ops`` count how the trace actually
    executed, and ``fallbacks`` splits ``scalar_ops`` by
    :data:`FALLBACK_REASONS` (engine-local diagnostics, deliberately
    *not* machine stats: the stats dump must stay byte-identical to a
    scalar replay).
    """

    def __init__(self, machine: Machine, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be positive: {chunk}")
        self.machine = machine
        self.chunk = chunk
        self.batched_ops = 0
        self.scalar_ops = 0
        self.fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        # Scalar run-ahead length, persisted across chunks so an
        # entirely-scalar trace converges to one precheck per span
        # instead of restarting the doubling ladder every chunk.
        self._span = _MIN_SCALAR_SPAN
        # Miss-run kernel block size, adapted the same way.
        self._kernel_block = _MIN_KERNEL_BLOCK

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
            self.fallbacks["chunk"] += count
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
            if probe is not _PROBE_KERNEL and probe is not _PROBE_FAST:
                stop = min(count, base + self._span)
                self._scalar_span(addr, size, is_write, base, stop)
                self.fallbacks[probe] += 1
                self.fallbacks["ladder"] += stop - base - 1
                base = stop
                self._span = min(self._span * 2, _MAX_SCALAR_SPAN)
                continue
            if probe is _PROBE_KERNEL:
                if addr_list is None:
                    addr_list = addr.tolist()
                    write_list = is_write.tolist()
                    single_list = (
                        ((addr & _LINE_MASK) + size <= CACHE_LINE)
                        & (size > 0)
                    ).tolist()
                stop = min(count, base + self._kernel_block)
                consumed, hazard = self._miss_run(
                    addr_list[base:stop],
                    write_list[base:stop],
                    single_list[base:stop],
                )
                base += consumed
                self._span = _MIN_SCALAR_SPAN
                if base == stop:
                    # Whole block consumed: the run is still going.
                    self._kernel_block = min(
                        self._kernel_block * 2, _MAX_KERNEL_BLOCK
                    )
                    continue
                self._kernel_block = _MIN_KERNEL_BLOCK
                if hazard is not None:
                    # The kernel broke on a hazard (fault, protection
                    # upgrade, multi-line op): only that op needs the
                    # scalar path.
                    self._scalar_span(addr, size, is_write, base, base + 1)
                    self.fallbacks[hazard] += 1
                    base += 1
                # Timer callbacks (or the scalar op) may have mutated
                # anything; the next iteration re-probes from scratch.
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
                self.fallbacks["ladder"] += stop - base
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

    def _probe_one(self, vaddr: int, nbytes: int, is_write: bool) -> str:
        """Classify the next op: the miss-run kernel, the vectorized
        fast path, or else the scalar fallback's reason (one of
        :data:`FALLBACK_REASONS`).

        Mirrors the per-op eligibility tests of both batch engines at
        dict-probe cost, so the expensive vectorized precheck only runs
        when the front op would actually take the fast path.
        """
        machine = self.machine
        if not machine._fast_ok or machine._mode_stack:  # noqa: SLF001
            return "chunk"
        if nbytes <= 0 or vaddr % CACHE_LINE + nbytes > CACHE_LINE:
            return "multi_line"
        key = vaddr // PAGE_SIZE | machine._asid_base  # noqa: SLF001
        entry = machine.tlb._entries.get(key)  # noqa: SLF001 - hot path
        if entry is None:
            # TLB miss: only the kernel can proceed, by walking inline —
            # which needs a clean translation, the stock eviction hook
            # and no persist hook (crash injection must see every
            # scalar persist event).
            if machine.persist_hook is not None:
                return "persist_hook"
            if (
                machine.walker is None
                or machine.tlb.on_evict != machine._tlb_evict_hook  # noqa: SLF001
            ):
                return "no_walker"
            _, pfn, writable = machine.walker(vaddr // PAGE_SIZE)
            if pfn is None:
                return "fault"
            if is_write and not writable:
                return "write_protect"
            return _PROBE_KERNEL
        if is_write and not entry.writable:
            return "write_protect"
        line = entry.pfn * LINES_PER_PAGE + vaddr % PAGE_SIZE // CACHE_LINE
        l1_sets = machine._l1_sets  # noqa: SLF001 - hot path
        if line in l1_sets[line % machine._l1_nsets]:  # noqa: SLF001
            return _PROBE_FAST
        if machine.persist_hook is not None:
            # L1 misses can write back to NVM; those must emit scalar
            # persist events when an injector is attached.
            return "persist_hook"
        return _PROBE_KERNEL

    # ------------------------------------------------------------------
    # miss-run kernel
    # ------------------------------------------------------------------

    def _miss_run(
        self,
        addrs: List[int],
        writes: List[bool],
        singles: List[bool],
    ) -> Tuple[int, Optional[str]]:
        """Execute a run of ops, each line through the machine's own
        :meth:`Machine.phys_line_access`, with TLB activity staged.

        Consumes ops until a hazard (see the module docstring's
        fallback taxonomy) or the earliest timer deadline; commits the
        staged TLB state, then fires any due timers.  Returns ``(ops
        consumed, hazard)``: the :data:`FALLBACK_REASONS` entry of the
        op the run broke on, or ``None``.  A
        :class:`~repro.common.errors.FaultError` from the line path
        propagates after the commit, leaving what the scalar path
        leaves when it raises on the same op.
        """
        machine = self.machine
        tlb = machine.tlb
        entries = tlb._entries  # noqa: SLF001 - hot path
        tlb_capacity = tlb.config.entries
        counters = machine._counters  # noqa: SLF001 - hot path
        heap = machine._timer_heap  # noqa: SLF001 - hot path
        op_base = machine._op_base_cycles  # noqa: SLF001 - hot path
        line_access = machine.phys_line_access
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
        deadline = heap[0][0] if heap else None

        consumed = 0
        last_key = 0
        hazard = None
        #: Staged TLB activity: every op's key ends up here (moved real
        #: entries, or walk fills as (pfn, writable, vpn) tuples, whose
        #: asid is the current one).  The combined LRU order is
        #: ``entries`` then ``pending``, matching the scalar dict
        #: exactly; evictions pop the combined head.
        pending: dict = {}
        n_tlb_hit = n_tlb_miss = n_tlb_evict = n_walks = 0
        n_write_ops = 0
        try:
            for vaddr, w, ok in zip(addrs, writes, singles):
                if not ok:
                    hazard = "multi_line"  # or page-crossing / zero-size
                    break
                vpn = vaddr // PAGE_SIZE
                key = asid_base | vpn
                entry = entries.get(key)
                if entry is not None:
                    if w and not entry.writable:
                        hazard = "write_protect"  # scalar fault path
                        break
                    pfn = entry.pfn
                    n_tlb_hit += 1
                    # LRU refresh: a touched real entry moves behind the
                    # staged ones (the combined MRU end).
                    del entries[key]
                    pending[key] = entry
                    machine.clock += op_base
                else:
                    staged = pending.get(key)
                    if staged is not None:
                        if type(staged) is tuple:
                            pfn, writable, _ = staged
                        else:
                            pfn, writable = staged.pfn, staged.writable
                        if w and not writable:
                            hazard = "write_protect"
                            break
                        n_tlb_hit += 1
                        pending[key] = pending.pop(key)
                        machine.clock += op_base
                    else:
                        if walker is None:
                            hazard = "no_walker"
                            break
                        pte_paddrs, pfn, writable = walker(vpn)
                        if pfn is None or (w and not writable):
                            # Fault / protection upgrade: break before
                            # charging anything — the scalar path then
                            # executes the op (and its walks) whole.
                            hazard = (
                                "fault" if pfn is None else "write_protect"
                            )
                            break
                        # Scalar order: op_base, the walk's entry reads,
                        # the TLB fill, then the data line.
                        machine.clock += op_base
                        n_tlb_miss += 1
                        if pte_paddrs:
                            for paddr in pte_paddrs:
                                line_access(paddr, False)
                            n_walks += 1
                        if len(entries) + len(pending) >= tlb_capacity:
                            if entries:
                                victim = entries.pop(next(iter(entries)))
                                victim_asid = victim.asid
                            else:
                                del pending[next(iter(pending))]
                                victim_asid = asid
                            n_tlb_evict += 1
                            if imon is not None:
                                imon.note_tlb_evict(victim_asid)
                        pending[key] = (pfn, writable, vpn)
                last_key = key
                offset = vaddr % PAGE_SIZE
                line_access(pfn * PAGE_SIZE + offset - offset % CACHE_LINE, w)
                if w:
                    n_write_ops += 1
                consumed += 1
                if deadline is not None and machine.clock >= deadline:
                    break  # timer due: commit, then fire at the boundary
        finally:
            # Commit the staged TLB state before any callback runs (and
            # before a FaultError from the line path propagates).
            if pending:
                for staged_key, staged in pending.items():
                    entries[staged_key] = (
                        TlbEntry(staged[2], staged[0], staged[1], asid=asid)
                        if type(staged) is tuple
                        else staged
                    )
                tlb.sync_mru(last_key)
            # Guarded adds: a zero add would create a counter key the
            # scalar replay of the same ops never creates.  Each op that
            # put its op_base on the clock tallied one TLB hit or miss.
            charged = n_tlb_hit + n_tlb_miss
            if charged:
                counters["cycles.user"] += op_base * charged
            if n_tlb_hit:
                counters["tlb.hit"] += n_tlb_hit
            if n_tlb_miss:
                counters["tlb.miss"] += n_tlb_miss
            if n_tlb_evict:
                counters["tlb.evictions"] += n_tlb_evict
            if n_walks:
                counters["walk.completed"] += n_walks
            if n_write_ops:
                counters["ops.writes"] += n_write_ops
            if consumed - n_write_ops:
                counters["ops.reads"] += consumed - n_write_ops
            self.batched_ops += consumed
        if consumed and heap and heap[0][0] <= machine.clock:
            machine.timers.fire_due(machine._read_clock)  # noqa: SLF001
        return consumed, hazard

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
