"""Property-based golden equivalence for the batched miss path.

Hypothesis drives randomized packed traces — bursts of mixed row
locality, write-buffer pressure, page-crossing ops, read-only pages and
multi-process interleavings — through the batch engine and the scalar
loop on identical machines, asserting byte-identical stats dumps, final
clocks, NVM wear reports and per-(evictor, victim) interference pair
counters.  The example-based suites pin known hazards; this one hunts
the interactions nobody thought to pin.
"""

from hypothesis import given, settings, strategies as st

from repro.arch.interference import InterferenceMonitor
from repro.arch.machine import LINES_PER_PAGE, Machine
from repro.common.config import (
    CacheConfig,
    HybridLayoutConfig,
    MachineConfig,
    NvmBufferConfig,
    TlbConfig,
)
from repro.common.units import CACHE_LINE, KiB, MiB, PAGE_SIZE
from repro.mem.hybrid import MemType
from repro.prep.trace import PackedTrace
from repro.replay import BatchReplayer

#: Pages per address space; small enough that random bursts revisit
#: pages (row/TLB locality) yet larger than the tiny TLB and caches.
NPAGES = 192


def _tiny_config() -> MachineConfig:
    """Shrunken hierarchy so short random traces reach every structure:
    capacity evictions, dirty writebacks, TLB replacement, write-buffer
    stalls (4-entry buffer)."""
    return MachineConfig(
        l1=CacheConfig("L1", 4 * KiB, 4, hit_latency=4),
        l2=CacheConfig("L2", 16 * KiB, 4, hit_latency=14),
        llc=CacheConfig("LLC", 64 * KiB, 8, hit_latency=40),
        tlb=TlbConfig(entries=16),
        nvm_buffers=NvmBufferConfig(write_buffer_entries=4),
        layout=HybridLayoutConfig(8 * MiB, 8 * MiB),
    )


#: One burst: (start page, line stride, ops, write modulus, odd sizes).
#: Stride 1 with a repeated start page gives row/cache locality; large
#: strides thrash; write modulus 0 disables writes, 1 makes every op a
#: write (write-buffer pressure); odd sizes mix in page-crossing ops
#: (scalar-fallback hazards).
burst_strategy = st.tuples(
    st.integers(0, NPAGES - 1),
    st.sampled_from([1, 3, 64, 67, 200, 6467]),
    st.integers(1, 40),
    st.integers(0, 3),
    st.booleans(),
)

trace_strategy = st.lists(burst_strategy, min_size=1, max_size=25)

#: Multi-process schedule: which space replays which burst.
schedule_strategy = st.lists(
    st.tuples(st.integers(0, 2), burst_strategy), min_size=2, max_size=20
)


def _expand(bursts):
    """Deterministically expand burst tuples into (vaddr, size, wr) ops."""
    lines_total = NPAGES * LINES_PER_PAGE
    ops = []
    for start_page, stride, count, write_mod, odd_sizes in bursts:
        line = start_page * LINES_PER_PAGE
        for i in range(count):
            if odd_sizes and i % 7 == 3:
                size = PAGE_SIZE + 96  # page-crossing: scalar fallback
            elif odd_sizes and i % 7 == 5:
                size = 61  # may straddle a line boundary
            else:
                size = 8
            vaddr = line * CACHE_LINE
            if vaddr + size > NPAGES * PAGE_SIZE:
                vaddr = 0  # keep page-crossers inside the mapped space
            ops.append(
                (vaddr, size, write_mod > 0 and i % write_mod == 0)
            )
            line = (line + stride) % lines_total
    return ops


def _machine_with_space(asid: int, read_only_every: int = 7,
                        flavor: str = "premapped"):
    """Tiny machine + walker space; every n-th page is read-only with
    a fault handler that upgrades it (protection-upgrade hazard).
    ``flavor`` picks the walk records: ``"premapped"`` (no entry
    reads) or ``"charged"`` (gemOS-style, four page-table entry reads
    charged through the cache hierarchy).
    Returns (machine, install) — ``install`` accepts a machine so the
    same space layout can be installed on several machines."""
    machine = Machine(_tiny_config())
    install = _space_installer(machine, asid, read_only_every, flavor)
    install(machine)
    return machine


def _space_installer(machine, asid: int, read_only_every: int,
                     flavor: str = "premapped"):
    dram_base, _ = machine.layout.pfn_range(MemType.DRAM)
    nvm_base, _ = machine.layout.pfn_range(MemType.NVM)
    # Per-asid placement: interleave DRAM/NVM with an asid-dependent
    # phase so spaces share banks/sets but not frames.
    mapping = {}
    for vpn in range(NPAGES):
        if (vpn + asid) % 2:
            pfn = nvm_base + asid * NPAGES + vpn
        else:
            pfn = dram_base + asid * NPAGES + vpn
        writable = not (read_only_every and vpn % read_only_every == 0)
        mapping[vpn] = [pfn, writable]

    # Four per-asid "table frames" at the top of DRAM for the charged
    # flavor (outside every space's data frames).
    _dram_base, dram_end = machine.layout.pfn_range(MemType.DRAM)
    table_frames = [dram_end - 1 - asid * 4 - level for level in range(4)]

    def walker(vpn):
        pte_paddrs = (
            [frame * PAGE_SIZE + (vpn % 512) * 8 for frame in table_frames]
            if flavor == "charged"
            else ()
        )
        entry = mapping.get(vpn)
        if entry is None:
            return pte_paddrs, None, False
        return pte_paddrs, entry[0], entry[1]

    def fault(vaddr, is_write):
        entry = mapping.get(vaddr // PAGE_SIZE)
        if entry is not None and is_write:
            entry[1] = True

    def install(target):
        target.install_context(asid, walker, fault)

    return install


def _fingerprint(machine: Machine):
    frames = {
        pfn: bytes(frame)
        for pfn, frame in machine.physmem._frames.items()  # noqa: SLF001
    }
    return (
        machine.stats.dump(),
        machine.clock,
        machine.controller.wear_report(),
        frames,
    )


class TestMissPathProperties:
    @given(
        bursts=trace_strategy,
        tick_period=st.integers(0, 1),
        flavor=st.sampled_from(["premapped", "charged"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_space_byte_identical(self, bursts, tick_period, flavor):
        """Any burst mixture replays byte-identically batch vs scalar,
        with or without a clock-advancing periodic timer, under both
        kinds of walk record (premapped, and charged entry reads)."""
        ops = _expand(bursts)
        packed = PackedTrace.from_ops(ops)
        results = []
        for batch in (False, True):
            machine = _machine_with_space(asid=1, flavor=flavor)
            if tick_period:

                def tick(machine=machine):
                    machine.stats.add("test.ticks")
                    with machine.os_region("tick"):
                        machine.advance(321)

                machine.timers.arm(
                    machine.clock + 50_003, tick, period=50_003, name="t"
                )
            if batch:
                replayer = BatchReplayer(machine)
                replayer.replay(packed)
                assert replayer.batched_ops + replayer.scalar_ops == len(ops)
            else:
                for vaddr, size, is_write in ops:
                    machine.access(vaddr, size, is_write)
            results.append(_fingerprint(machine))
        assert results[0] == results[1]

    @given(
        schedule=schedule_strategy,
        flavor=st.sampled_from(["premapped", "charged"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_process_interference_identical(self, schedule, flavor):
        """Context switches between replay segments plus the
        interference monitor: attribution (including every per-pair
        counter) must match the scalar replay exactly — inline charged
        walks included (their page-table traffic is attributed too)."""
        segments = [
            (space, _expand([burst])) for space, burst in schedule
        ]
        results = []
        pair_counters = []
        for batch in (False, True):
            machine = Machine(_tiny_config())
            machine.install_interference_monitor(InterferenceMonitor())
            installers = {
                asid: _space_installer(
                    machine, asid, read_only_every=7, flavor=flavor
                )
                for asid in (1, 2, 3)
            }
            replayer = BatchReplayer(machine) if batch else None
            for space, ops in segments:
                installers[space + 1](machine)
                if replayer is not None:
                    replayer.replay(ops)
                else:
                    for vaddr, size, is_write in ops:
                        machine.access(vaddr, size, is_write)
            results.append(_fingerprint(machine))
            pair_counters.append(
                dict(machine.stats.with_prefix("interference."))
            )
        assert results[0] == results[1]
        assert pair_counters[0] == pair_counters[1]
