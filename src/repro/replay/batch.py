"""The batch replay engine: one miss-run kernel that is its own probe.

Equivalence argument
--------------------

The kernel (:meth:`BatchReplayer._miss_run`) runs each op on the same
line path as scalar replay: every data line and every page-table-entry
read goes through :meth:`Machine.phys_line_access`, which hits, fills,
evicts, writes back, reads the clock at each write-buffer enqueue and
charges cycles exactly as it does for :meth:`Machine.access`.  L1 hits
take that method's hit branch; there is no second copy of the hit
semantics.  Only what is batch-specific stays in the kernel:

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
per miss, as the scalar path does, and decides before charging
anything: a faulting or write-protected translation breaks to scalar
with the op untouched, so the scalar retry never sees a half-executed
op.  A clean record is charged in the scalar order: ``op_base``, the
entry reads, the TLB fill, the data line.  A line outside physical
memory raises :class:`~repro.common.errors.FaultError` from the line
path at the same point as in scalar replay; the kernel commits its
staging and lets the error propagate, so the op is charged once.

Timers are the coupling to the clock: the scalar loop fires due timers
after every op, so a run is truncated at the op whose clock advance
first reaches the earliest armed deadline.  The staged TLB state is
committed *before* the callbacks fire — so a callback that flushes the
TLB or switches contexts acts on synchronized structures — and the
kernel returns afterwards; the next call starts from the new state.

The kernel is also the only hazard classifier.  On entry it refuses to
run while the fast path is off (extensions attached), in os mode, or
while a persist hook is installed (a crash injector must see every
persist event in scalar order).  Per op it breaks on multi-line,
page-crossing and zero-size ops, faulting or write-protected
translations, and TLB misses with no walker or a replaced eviction
hook.  Every op it refuses takes the scalar :meth:`Machine.access`
path, which is definitionally equivalent; :attr:`BatchReplayer.fallbacks`
counts the scalar ops per reason.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.machine import Machine
from repro.arch.tlb import TlbEntry
from repro.common.units import CACHE_LINE, PAGE_SIZE
from repro.prep.trace import PackedTrace

#: Operations converted to Python lists per chunk (bounds the
#: ``tolist()`` working set of a long trace).
DEFAULT_CHUNK = 8192

#: Scalar run-ahead after a kernel call that consumed nothing: starts
#: small so a cold-start warmup flips to batch mode quickly, doubles
#: while calls keep refusing so hazard-heavy phases pay a bounded
#: number of kernel entries per chunk.
_MIN_SCALAR_SPAN = 32
_MAX_SCALAR_SPAN = 4096  # repro: allow-geometry(op-count span cap, not a byte size)

#: Ops handed to the kernel per call: starts small (short runs should
#: not pay full-chunk slicing), doubles while the kernel consumes whole
#: blocks, resets when a run breaks early.
_MIN_KERNEL_BLOCK = 64
_MAX_KERNEL_BLOCK = DEFAULT_CHUNK

#: Why an op took the scalar path (:attr:`BatchReplayer.fallbacks`):
#: ``chunk`` — attached extensions or os mode (the rest of the chunk
#: goes scalar); ``multi_line`` — multi-line, page-crossing or
#: zero-size op; ``fault`` — the walk record has no translation;
#: ``write_protect`` — a write through a read-only translation;
#: ``persist_hook`` — a crash injector is attached; ``no_walker`` — no
#: address space installed, or a replaced TLB eviction hook;
#: ``ladder`` — the ops of a refused call's scalar span after its
#: first.
FALLBACK_REASONS = (
    "chunk",
    "multi_line",
    "fault",
    "write_protect",
    "persist_hook",
    "no_walker",
    "ladder",
)

_LINE_MASK = np.uint64(CACHE_LINE - 1)


#: A scalar trace operation, as built by the bench scenarios.
Op = Tuple[int, int, bool]


class BatchReplayer:
    """Replays a trace against one machine in batched kernel runs.

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

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.batched_ops = 0
        self.scalar_ops = 0
        self.fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        # Scalar run-ahead length, persisted across chunks so an
        # entirely-scalar trace converges to one kernel entry per span
        # instead of restarting the doubling ladder every chunk.
        self._span = _MIN_SCALAR_SPAN
        # Kernel block size, adapted the same way.
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
        single = ((addr & _LINE_MASK) + size <= CACHE_LINE) & (size > 0)
        total = len(addr)
        for start in range(0, total, DEFAULT_CHUNK):
            stop = min(total, start + DEFAULT_CHUNK)
            self._replay_chunk(
                addr[start:stop].tolist(),
                size[start:stop].tolist(),
                is_write[start:stop].tolist(),
                single[start:stop].tolist(),
            )
        return total

    # ------------------------------------------------------------------
    # chunk machinery
    # ------------------------------------------------------------------

    def _replay_chunk(
        self,
        addrs: List[int],
        sizes: List[int],
        writes: List[bool],
        singles: List[bool],
    ) -> None:
        count = len(addrs)
        base = 0
        while base < count:
            stop = min(count, base + self._kernel_block)
            consumed, hazard = self._miss_run(
                addrs[base:stop], writes[base:stop], singles[base:stop]
            )
            if consumed:
                base += consumed
                self._span = _MIN_SCALAR_SPAN
                if base == stop:
                    # Whole block consumed: the run is still going.
                    self._kernel_block = min(
                        self._kernel_block * 2, _MAX_KERNEL_BLOCK
                    )
                    continue
                self._kernel_block = _MIN_KERNEL_BLOCK
                if hazard is None:
                    continue  # timers fired; start a fresh run
                # The run broke on a hazard: only that op needs the
                # scalar path.
                stop = base + 1
            elif hazard == "chunk":
                # Nothing batches until the extensions detach or os
                # mode ends: the rest of the chunk goes scalar.
                self._scalar_span(addrs, sizes, writes, base, count)
                self.fallbacks["chunk"] += count - base
                return
            else:
                stop = min(count, base + self._span)
                self._span = min(self._span * 2, _MAX_SCALAR_SPAN)
            self._scalar_span(addrs, sizes, writes, base, stop)
            self.fallbacks[hazard] += 1
            self.fallbacks["ladder"] += stop - base - 1
            base = stop

    def _scalar_span(
        self,
        addrs: List[int],
        sizes: List[int],
        writes: List[bool],
        start: int,
        stop: int,
    ) -> None:
        """Replay ``[start, stop)`` through the scalar access path."""
        access = self.machine.access
        for vaddr, nbytes, write in zip(
            addrs[start:stop], sizes[start:stop], writes[start:stop]
        ):
            access(vaddr, nbytes, write)
        self.scalar_ops += stop - start

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

        Refuses on entry (``(0, "chunk")`` or ``(0, "persist_hook")``)
        when no op may batch; otherwise consumes ops until a per-op
        hazard or the earliest timer deadline, commits the staged TLB
        state, then fires any due timers.  Returns ``(ops consumed,
        hazard)``: the :data:`FALLBACK_REASONS` entry of the op the run
        broke on (or of the refusal), or ``None``.  A
        :class:`~repro.common.errors.FaultError` from the line path
        propagates after the commit, leaving what the scalar path
        leaves when it raises on the same op.
        """
        machine = self.machine
        if not machine._fast_ok or machine._mode_stack:  # noqa: SLF001
            return 0, "chunk"
        if machine.persist_hook is not None:
            return 0, "persist_hook"
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


def replay_batch(
    machine: Machine, trace: Union[PackedTrace, Sequence[Op]]
) -> BatchReplayer:
    """Replay ``trace`` on ``machine`` in batch mode; returns the
    replayer (whose ``batched_ops``/``scalar_ops`` describe the split)."""
    replayer = BatchReplayer(machine)
    replayer.replay(trace)
    return replayer
