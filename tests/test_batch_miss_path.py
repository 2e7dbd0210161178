"""Miss-run kernel regression suite (batch replay beyond the L1).

The vectorized miss path executes TLB walks, cache fills, victim
evictions, row-buffer switches and NVM write-buffer traffic inside a
batched run.  These tests pin the two contracts that make that safe:

* **byte identity** — a miss-heavy trace replayed through the batch
  engine produces the same stats dump, final clock and physical memory
  as the scalar loop, including when timer callbacks invalidate
  machine state *mid run* (row resets, controller power cycles,
  persist barriers, full power failures);
* **fallback discipline** — every hazard the kernel cannot model
  (faulting walk records, persist hooks, protection upgrades) must
  break the run *before* mutating anything, leaving the op to the
  scalar path.
"""

import hashlib
import itertools
import re
from pathlib import Path

import pytest

import repro.replay.batch as batch_module
from repro.arch.hooks import HardwareExtension
from repro.arch.interference import InterferenceMonitor
from repro.arch.machine import LINES_PER_PAGE, Machine
from repro.arch.tlb import TlbEntry
from repro.common.config import (
    CacheConfig,
    HybridLayoutConfig,
    MachineConfig,
    TlbConfig,
    small_machine_config,
)
from repro.common.errors import FaultError
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE, KiB, MiB, PAGE_SIZE
from repro.gemos.frames import FrameAllocator
from repro.gemos.pagetable import PageTable
from repro.harness.bench import SCENARIOS
from repro.mem.hybrid import MemType
from repro.replay import BatchReplayer, replay_batch
from repro.replay.batch import FALLBACK_REASONS

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: Cycles between hazard-timer fires: a handful of fires across the
#: ~3M-cycle hazard traces (each fire lands mid-run and must force the
#: kernel to commit, re-probe and rebuild its run state).
HAZARD_PERIOD = 300_001


def _tiny_config() -> MachineConfig:
    """Shrunken hierarchy (64/256/1024-line caches, 16-entry TLB) so a
    few thousand strided ops exercise capacity evictions, dirty
    writebacks and TLB replacement at every level."""
    return MachineConfig(
        l1=CacheConfig("L1", 4 * KiB, 4, hit_latency=4),
        l2=CacheConfig("L2", 16 * KiB, 4, hit_latency=14),
        llc=CacheConfig("LLC", 64 * KiB, 8, hit_latency=40),
        tlb=TlbConfig(entries=16),
        layout=HybridLayoutConfig(8 * MiB, 8 * MiB),
    )


def _premapped(npages: int, nvm: bool = False, read_only_every: int = 0):
    """Machine with ``npages`` identity-premapped pages (walk records
    with no entry reads) and a protection-upgrade fault handler.

    ``read_only_every`` > 0 maps every n-th page read-only; the handler
    upgrades it on the first write fault (the scalar path the kernel
    must break to).  Returns ``(machine, reinstall)`` — ``reinstall``
    re-points the hardware at the space after a power failure.
    """
    machine = Machine(_tiny_config())
    kind = MemType.NVM if nvm else MemType.DRAM
    base_pfn, end_pfn = machine.layout.pfn_range(kind)
    assert npages <= end_pfn - base_pfn
    mapping = {
        vpn: [
            base_pfn + vpn,
            not (read_only_every and vpn % read_only_every == 0),
        ]
        for vpn in range(npages)
    }

    def walker(vpn):
        entry = mapping.get(vpn)
        return ((), entry[0], entry[1]) if entry else ((), None, False)

    def fault(vaddr, is_write):
        entry = mapping.get(vaddr // PAGE_SIZE)
        if entry is not None and is_write:
            entry[1] = True

    def reinstall():
        machine.install_context(1, walker, fault)

    reinstall()
    return machine, reinstall


def _thrash_trace(ops: int, npages: int, stride_lines: int = 6467,
                  write_every: int = 3):
    """Strided single-line ops that miss the TLB and caches constantly.

    The default stride advances ~101 pages (plus a 3-line drift) per
    op, so with a few hundred mapped pages the page reuse distance
    stays far above the 64-entry TLB: nearly every op takes the
    kernel's inline-walk path.
    """
    lines_total = npages * LINES_PER_PAGE
    trace = []
    line = 0
    for i in range(ops):
        line = (line + stride_lines) % lines_total
        trace.append((line * CACHE_LINE, 8, i % write_every == 0))
    return trace


def _fingerprint(machine: Machine):
    frames = {
        pfn: bytes(frame)
        for pfn, frame in machine.physmem._frames.items()  # noqa: SLF001
    }
    return machine.stats.dump(), machine.clock, frames


def _digest(machine: Machine) -> str:
    """sha256 over :func:`_fingerprint`: dump, clock, frames by pfn."""
    dump, clock, frames = _fingerprint(machine)
    digest = hashlib.sha256(dump.encode())
    digest.update(b"clock=%d\n" % clock)
    for pfn in sorted(frames):
        digest.update(b"pfn=%d\n" % pfn)
        digest.update(frames[pfn])
    return digest.hexdigest()


#: Fingerprint digests recorded while the batch kernel still carried its
#: own copy of the cache/memory line path.  Scalar and batch replay now
#: share one line path, so batch-vs-scalar equality alone no longer
#: checks the hierarchy against an independent implementation; both
#: runs of every trace below must also reproduce these digests.
#: ``fallback.demand_fault_one_op`` was recorded later, from the
#: scalar and batch replays of the engine that still ran a scalar span
#: after every kernel break.
PINNED_DIGESTS = {
    "fallback.demand_fault_one_op": (
        "ce1bb0f5f9bb4bb016d84dde3c88e33f1c3970108dafd4c9ffee336ed9690140"
    ),
    "fallback.extra_walker_calls": (
        "f0ca548aa3aa955fbcb6daed9f0d82416e78422bb0c6ab4f3561d161cb698b46"
    ),
    "fallback.multiline": (
        "04daa5d58bd5b34299b1d84610c32dd6bda27272023e434817070e473f212a9f"
    ),
    "fallback.persist_hook": (
        "0412cf1ab8d4ef505bfda5f525d0e1a7feb97288b79e25298ac446af1cf960d8"
    ),
    "fallback.protection_upgrade": (
        "c628fbc0f787e6d0a61c5ffe9136cd955ffb8969e5823b483757090dd35dc022"
    ),
    "hazard.controller_power_cycle": (
        "1a5bfe50c2c024866f306f5ca472afbf13b38ce4b155d132f0c4202ede739be6"
    ),
    "hazard.persist_barrier": (
        "e2aeae966dba408ba2b5e4af26853085007af741ef88ee705e85d23dced612b0"
    ),
    "hazard.power_fail": (
        "74c967a3ee3d18d84d3e3c047a218f94e62af84c2c4f9ff1aeddb3f506352fd9"
    ),
    "hazard.row_reset": (
        "aca6a59b61dbd79430897e8ee1f3b290f63ec5ecbfeec1e4debd8a1a494982d9"
    ),
    "miss.dram_nvm_interleaved": (
        "29ff4ce266998cb86fd7e86ce4f3f4b3640f6d9c92e66ff419a97b607113da8a"
    ),
    "miss.thrash_nvm": (
        "a7e88f42bacda1c2824a1bddf1cbaa2db4883fbba93e411ac91de9adc82cd063"
    ),
    "miss.write_buffer_pressure": (
        "2ef8c42471c378d0bc09469466596265f3da2d53d568b5cf092d86cf3c814b81"
    ),
    "walks.charged": (
        "acbee89ee6a16a8bd7e1aebfd1748a43e4b7ca94686fb318462c1fe5d21d4a58"
    ),
    "walks.holes": (
        "a0ed3233f9ade56a8292113f748476fd254f2541ef50bd8d173406a1140b4466"
    ),
    "walks.read_only": (
        "b197c641983fdc6297441f8d474d3b489a6dab39e28ebd8281a0b34269fbbdb6"
    ),
    "walks.timer_deadlines": (
        "d38c61b5c91f3f01ec3333afb5dca00ff0b8c13c58d1368712a97bb62bf781f4"
    ),
}


def _assert_pinned(name: str, *machines: Machine) -> None:
    for machine in machines:
        assert _digest(machine) == PINNED_DIGESTS[name], name


def _run_pair(build, trace):
    """Replay ``trace`` scalar and batched on fresh ``build()`` machines;
    returns ``(scalar_machine, batch_machine, replayer)``."""
    scalar_machine = build()
    for vaddr, size, is_write in trace:
        scalar_machine.access(vaddr, size, is_write)
    batch_machine = build()
    replayer = replay_batch(batch_machine, trace)
    return scalar_machine, batch_machine, replayer


class TestMissKernelEngages:
    def test_miss_heavy_trace_batches_fully(self):
        """With premapped walks, a TLB/cache-thrashing trace runs almost
        entirely through the kernel (this is the perf win the PR is
        gated on — a silent fallback regression shows up here)."""
        trace = _thrash_trace(4000, npages=512)
        scalar, batch, replayer = _run_pair(
            lambda: _premapped(512, nvm=True)[0], trace
        )
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("miss.thrash_nvm", scalar, batch)
        assert replayer.batched_ops > 3600  # >90% through the kernel
        assert batch.stats["tlb.miss"] > 3600  # genuinely TLB-thrashing
        assert batch.stats["nvm.reads"] > 0
        assert batch.stats["cache.writebacks"] > 0

    def test_write_buffer_pressure(self):
        """All-write NVM thrash fills the 48-entry write buffer; batched
        enqueues must reproduce stalls and the drain horizon exactly."""
        trace = _thrash_trace(4000, npages=512, write_every=1)
        scalar, batch, replayer = _run_pair(
            lambda: _premapped(512, nvm=True)[0], trace
        )
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("miss.write_buffer_pressure", scalar, batch)
        assert replayer.batched_ops > 0
        assert scalar.stats["nvm.buffered_writes"] > 0

    def test_dram_and_nvm_interleaved(self):
        """Ops alternating between DRAM- and NVM-backed pages exercise
        both channels' row state in one run."""
        machine_pages = 256

        def build():
            machine = Machine(_tiny_config())
            dram_base, _ = machine.layout.pfn_range(MemType.DRAM)
            nvm_base, _ = machine.layout.pfn_range(MemType.NVM)
            mapping = {
                vpn: (
                    ((), nvm_base + vpn, True)
                    if vpn % 2
                    else ((), dram_base + vpn, True)
                )
                for vpn in range(machine_pages)
            }
            machine.install_context(1, mapping.__getitem__, None)
            return machine

        trace = _thrash_trace(4000, npages=machine_pages)
        scalar, batch, replayer = _run_pair(build, trace)
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("miss.dram_nvm_interleaved", scalar, batch)
        assert replayer.batched_ops > 0
        assert batch.stats["dram.reads"] > 0
        assert batch.stats["nvm.reads"] > 0


class TestMidRunInvalidation:
    """Timer callbacks that clobber structures the kernel is holding.

    The kernel's staged TLB state must be committed before the callback
    runs, and the kernel must re-probe afterwards — a stale cached run
    would diverge from scalar immediately (open rows, drain horizon and
    TLB contents all change under it)."""

    def _hazard_pair(self, name, make_hazard, trace, npages=512, nvm=True):
        fires = []

        def run(batch):
            machine, reinstall = _premapped(npages, nvm=nvm)
            hazard = make_hazard(machine, reinstall)

            def on_fire():
                machine.stats.add("test.hazard_fires")
                hazard()

            machine.timers.arm(
                machine.clock + HAZARD_PERIOD,
                on_fire,
                period=HAZARD_PERIOD,
                name="hazard",
            )
            if batch:
                replayer = replay_batch(machine, trace)
                fires.append(machine.stats["test.hazard_fires"])
                return machine, replayer
            for vaddr, size, is_write in trace:
                machine.access(vaddr, size, is_write)
            fires.append(machine.stats["test.hazard_fires"])
            return machine, None

        scalar_machine, _ = run(batch=False)
        batch_machine, replayer = run(batch=True)
        assert fires[0] == fires[1] > 0  # hazard really fired, mid-run
        assert replayer.batched_ops > 0  # and the kernel really engaged
        assert _fingerprint(batch_machine) == _fingerprint(scalar_machine)
        _assert_pinned(name, scalar_machine, batch_machine)
        return batch_machine, replayer

    def test_row_reset_mid_run(self):
        """MemoryChannel.reset_rows from a timer closes rows the kernel
        had open: subsequent accesses must pay row misses again."""
        trace = _thrash_trace(6000, npages=512)
        self._hazard_pair(
            "hazard.row_reset",
            lambda machine, _reinstall: (
                lambda: (
                    machine.controller.dram.reset_rows(),
                    machine.controller.nvm.reset_rows(),
                )
            ),
            trace,
        )

    def test_controller_power_cycle_mid_run(self):
        """controller.power_cycle drops open rows *and* the buffered
        (volatile) NVM writes, resetting the drain horizon the kernel
        tracks as a local."""
        trace = _thrash_trace(6000, npages=512, write_every=1)
        batch_machine, _ = self._hazard_pair(
            "hazard.controller_power_cycle",
            lambda machine, _reinstall: machine.controller.power_cycle,
            trace,
        )
        assert batch_machine.stats["nvm.buffered_writes"] > 0

    def test_persist_barrier_mid_run(self):
        """machine.persist_barrier stalls on the write buffer: the
        drain horizon committed by the kernel feeds the stall length."""
        trace = _thrash_trace(6000, npages=512, write_every=1)
        batch_machine, _ = self._hazard_pair(
            "hazard.persist_barrier",
            lambda machine, _reinstall: machine.persist_barrier,
            trace,
        )
        assert batch_machine.stats["persist_barriers"] > 0

    def test_power_fail_mid_run(self):
        """Full power failure from a timer: caches, TLB, rows, buffered
        writes and the armed context all vanish; the callback reboots
        and reinstalls the space, and replay must continue identically
        (the periodic hazard timer survives its own power_fail because
        it was already popped when the callback ran)."""

        def make_hazard(machine, reinstall):
            def hazard():
                machine.power_fail()
                machine.power_on()
                reinstall()

            return hazard

        trace = _thrash_trace(6000, npages=512)
        batch_machine, _ = self._hazard_pair(
            "hazard.power_fail", make_hazard, trace
        )
        assert batch_machine.stats["power.failures"] > 0


class TestFallbackDiscipline:
    def test_batch_calls_walker_as_often_as_scalar(self):
        """The kernel is its own probe: it reads each walk record once,
        exactly where the scalar path does, so the walker call count,
        the walk counters and the fingerprint all match scalar replay."""
        npages = 512
        trace = _thrash_trace(3000, npages=npages)
        calls = []

        def run(batch):
            machine = Machine(_tiny_config())
            base_pfn, _ = machine.layout.pfn_range(MemType.NVM)
            _, dram_end = machine.layout.pfn_range(MemType.DRAM)
            count = 0

            def walker(vpn):
                nonlocal count
                count += 1
                pte = (dram_end - 1) * PAGE_SIZE + (vpn % 512) * 8
                return [pte], base_pfn + vpn, True

            machine.install_context(1, walker, None)
            if batch:
                replay_batch(machine, trace)
            else:
                for vaddr, size, is_write in trace:
                    machine.access(vaddr, size, is_write)
            calls.append(count)
            return machine

        scalar_machine = run(batch=False)
        batch_machine = run(batch=True)
        assert calls[1] == calls[0] == scalar_machine.stats["walk.completed"]
        assert batch_machine.stats["walk.completed"] == calls[0]
        assert _fingerprint(batch_machine) == _fingerprint(scalar_machine)
        _assert_pinned(
            "fallback.extra_walker_calls", scalar_machine, batch_machine
        )

    def test_persist_hook_forces_scalar(self):
        """An installed persist hook must see every durable-write event
        in scalar order; the kernel refuses to run while one is set."""
        trace = _thrash_trace(2000, npages=256, write_every=1)
        events = []

        def build():
            machine, _ = _premapped(256, nvm=True)
            machine.persist_hook = lambda kind, detail: events.append(
                (kind, detail)
            )
            return machine

        scalar, batch, replayer = _run_pair(build, trace)
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("fallback.persist_hook", scalar, batch)
        assert replayer.batched_ops == 0
        half = len(events) // 2
        assert half > 0 and events[:half] == events[half:]  # same stream

    def test_persist_hook_refuses_l1_resident_ops(self):
        """The persist-hook rule has no L1-hit exception: the kernel
        refuses at entry, so even a TLB- and L1-resident trace replays
        scalar while a hook is installed."""
        events = []

        def build():
            machine, _ = SCENARIOS["l1_resident"](3000)
            machine.persist_hook = lambda kind, detail: events.append(
                (kind, detail)
            )
            return machine

        _, trace = SCENARIOS["l1_resident"](3000)
        scalar, batch, replayer = _run_pair(build, trace)
        assert _fingerprint(batch) == _fingerprint(scalar)
        half = len(events) // 2
        assert events[:half] == events[half:]
        assert replayer.batched_ops == 0
        assert set(_tally(replayer)) == {"persist_hook", "ladder"}

    def test_protection_upgrade_breaks_run(self):
        """A write through a read-only translation takes the scalar
        fault/upgrade path; the kernel must not have counted anything
        for that op (tlb.hit totals would drift otherwise)."""
        trace = _thrash_trace(3000, npages=512, write_every=2)
        scalar, batch, replayer = _run_pair(
            lambda: _premapped(512, nvm=True, read_only_every=5)[0],
            trace,
        )
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("fallback.protection_upgrade", scalar, batch)
        assert replayer.batched_ops > 0
        assert replayer.scalar_ops > 0

    def test_multiline_op_breaks_run(self):
        """Page-crossing ops split per page in the scalar path; the
        kernel consumes single-line ops around them."""
        trace = _thrash_trace(2000, npages=512)
        # Replace every 50th op with a page-crossing write (kept well
        # inside the mapped range so the crossed-into page exists).
        trace = [
            ((i % 100) * PAGE_SIZE + PAGE_SIZE - 64, PAGE_SIZE + 96, True)
            if i % 50 == 25
            else op
            for i, op in enumerate(trace)
        ]
        scalar, batch, replayer = _run_pair(
            lambda: _premapped(512, nvm=True)[0], trace
        )
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("fallback.multiline", scalar, batch)
        assert replayer.batched_ops > 0
        assert replayer.scalar_ops >= 2000 // 50


class TestOutOfRangeLine:
    def test_unbacked_line_charges_failing_op_once(self):
        """A translation to a frame past the end of physical memory
        faults on the data line, after the op's base cycles, its TLB
        fill and its cache misses were charged.  A batch run must leave
        exactly what the scalar path leaves and raise the same error —
        not commit the partial op and let a scalar retry charge it
        again."""

        def build():
            machine = Machine(small_machine_config())
            dram_base, _ = machine.layout.pfn_range(MemType.DRAM)
            beyond = machine.layout.end // PAGE_SIZE

            def walker(vpn):
                return ((), beyond if vpn == 5 else dram_base + vpn, True)

            machine.install_context(1, walker, None)
            return machine

        trace = [
            (vpn * PAGE_SIZE, 8, vpn == 1) for vpn in (0, 1, 2, 0, 1, 2, 3, 5)
        ]
        runs = []
        for batch in (False, True):
            machine = build()
            with pytest.raises(FaultError) as raised:
                if batch:
                    replay_batch(machine, trace)
                else:
                    for vaddr, size, is_write in trace:
                        machine.access(vaddr, size, is_write)
            runs.append((_fingerprint(machine), str(raised.value)))
        assert runs[1] == runs[0]
        (dump, _clock, _frames), message = runs[0]
        assert "outside memory map" in message
        assert "llc.miss 5" in dump and "ops.reads 5" in dump


class TestInlineImpureWalks:
    """Charged walks run inline.

    A gemOS-style walk record carries page-table entry reads that go
    through the cache hierarchy (charging cycles, filling lines,
    potentially evicting dirty victims into the NVM write buffer).  The
    kernel reads the record before charging anything, bails to scalar
    on a fault or write-protection denial, and otherwise runs the entry
    reads through the machine's line path like the data line.
    Byte identity and equal charged-walk counts pin all of that down."""

    def _charged_space(self, npages, read_only_every=0, holes_every=0):
        """Machine whose walk records read four "table" entries.

        ``holes_every`` leaves every n-th page unmapped; the fault
        handler demand-maps it (the record's translation is None first,
        so the kernel must break before charging the walk — a
        double-charged walk would show up in the walk counters).
        """
        machine = Machine(_tiny_config())
        nvm_base, nvm_end = machine.layout.pfn_range(MemType.NVM)
        _dram_base, dram_end = machine.layout.pfn_range(MemType.DRAM)
        assert npages <= nvm_end - nvm_base
        # Four "table frames" at the top of DRAM, one per walk level.
        table_frames = [dram_end - 1 - level for level in range(4)]
        mapping = {}
        for vpn in range(npages):
            if holes_every and vpn % holes_every == 0:
                continue
            writable = not (read_only_every and vpn % read_only_every == 0)
            mapping[vpn] = [nvm_base + vpn, writable]

        def walker(vpn):
            pte_paddrs = [
                frame * PAGE_SIZE + (vpn % 512) * 8 for frame in table_frames
            ]
            entry = mapping.get(vpn)
            if entry is None:
                return pte_paddrs, None, False
            return pte_paddrs, entry[0], entry[1]

        def fault(vaddr, is_write):
            vpn = vaddr // PAGE_SIZE
            entry = mapping.get(vpn)
            if entry is None:
                mapping[vpn] = [nvm_base + vpn, True]
            elif is_write:
                entry[1] = True

        machine.install_context(1, walker, fault)
        return machine

    @staticmethod
    def _charged_walks(machine):
        return machine.stats["walk.completed"] + machine.stats["walk.aborted"]

    def _charged_pair(self, name, trace, **space_kwargs):
        counts = []

        def run(batch):
            machine = self._charged_space(512, **space_kwargs)
            if batch:
                replayer = replay_batch(machine, trace)
            else:
                replayer = None
                for vaddr, size, is_write in trace:
                    machine.access(vaddr, size, is_write)
            counts.append(self._charged_walks(machine))
            return machine, replayer

        scalar_machine, _ = run(batch=False)
        batch_machine, replayer = run(batch=True)
        assert counts[0] == counts[1] > 0  # every walk charged exactly once
        assert _fingerprint(batch_machine) == _fingerprint(scalar_machine)
        _assert_pinned(name, scalar_machine, batch_machine)
        return replayer

    def test_charged_walker_runs_inline(self):
        """TLB-thrashing trace: nearly every op needs a charged walk,
        and the kernel keeps the run going through all of them."""
        trace = _thrash_trace(3000, npages=512)
        replayer = self._charged_pair("walks.charged", trace)
        assert replayer.batched_ops > replayer.scalar_ops

    def test_kernel_sends_every_line_through_phys_line_access(self):
        """One line path: a clean, all-walking trace runs entirely in
        the kernel, and each data line and each of the four entry reads
        per walk is one call to the machine's own line path."""
        machine = self._charged_space(512)
        calls = []
        scalar_line = machine.phys_line_access

        def counting_line(*args, **kwargs):
            calls.append(args)
            scalar_line(*args, **kwargs)

        machine.phys_line_access = counting_line
        trace = _thrash_trace(3000, npages=512)
        replayer = replay_batch(machine, trace)
        assert replayer.scalar_ops == 0
        walks = machine.stats["walk.completed"]
        assert walks == machine.stats["tlb.miss"] > 2900
        assert len(calls) == len(trace) + 4 * walks

    def test_peek_fault_bails_before_walk(self):
        """Unmapped pages: the record's translation is None and the op
        breaks to scalar *before* its entry reads are charged, so
        demand faulting charges the same walks as pure scalar replay."""
        trace = _thrash_trace(3000, npages=512)
        replayer = self._charged_pair("walks.holes", trace, holes_every=7)
        assert replayer.batched_ops > 0
        assert replayer.scalar_ops > 0

    def test_peek_protection_denial_bails_before_walk(self):
        """Writes through read-only translations break before charging;
        the scalar retry pays the walk + upgrade fault exactly once."""
        trace = _thrash_trace(3000, npages=512, write_every=2)
        replayer = self._charged_pair(
            "walks.read_only", trace, read_only_every=5
        )
        assert replayer.batched_ops > 0
        assert replayer.scalar_ops > 0

    def test_charged_walks_cross_timer_deadlines(self):
        """Inline walks advance the run clock, so a walk can be what
        pushes the run across an armed deadline: the kernel must still
        commit everything before the callback fires."""
        trace = _thrash_trace(6000, npages=512)
        fires = []

        def run(batch):
            machine = self._charged_space(512)

            def on_fire():
                machine.stats.add("test.hazard_fires")
                machine.controller.dram.reset_rows()
                machine.controller.nvm.reset_rows()

            machine.timers.arm(
                machine.clock + HAZARD_PERIOD,
                on_fire,
                period=HAZARD_PERIOD,
                name="hazard",
            )
            if batch:
                replayer = replay_batch(machine, trace)
            else:
                replayer = None
                for vaddr, size, is_write in trace:
                    machine.access(vaddr, size, is_write)
            fires.append(machine.stats["test.hazard_fires"])
            return machine, self._charged_walks(machine), replayer

        scalar_machine, scalar_calls, _ = run(batch=False)
        batch_machine, batch_calls, replayer = run(batch=True)
        assert fires[0] == fires[1] > 0
        assert scalar_calls == batch_calls
        assert replayer.batched_ops > 0
        assert _fingerprint(batch_machine) == _fingerprint(scalar_machine)
        _assert_pinned("walks.timer_deadlines", scalar_machine, batch_machine)


def _gemos_space(npages: int):
    """Machine walking a real four-level :class:`PageTable` (tables in
    DRAM, so every walk reads four entries through the caches) with
    ``npages`` NVM pages premapped and a demand-paging fault handler."""
    machine = Machine(_tiny_config())
    dram_base, dram_end = machine.layout.pfn_range(MemType.DRAM)
    nvm_base, _ = machine.layout.pfn_range(MemType.NVM)
    table = PageTable(
        FrameAllocator(MemType.DRAM, dram_base, dram_end, Stats())
    )
    for vpn in range(npages):
        table.map(vpn, nvm_base + vpn)

    def fault(vaddr, is_write):
        vpn = vaddr // PAGE_SIZE
        table.map(vpn, nvm_base + vpn)

    machine.install_context(1, table.hw_walk, fault)
    return machine


class TestOneOpFallback:
    def test_mid_run_demand_fault_costs_one_scalar_op(self):
        """A kernel run that breaks on a demand fault sends only the
        faulting op down the scalar path, then resumes batching."""
        npages = 512
        thrash = _thrash_trace(3000, npages=npages)
        fault_op = (npages * PAGE_SIZE + 64, 8, True)
        trace = thrash[:1500] + [fault_op] + thrash[1500:]
        scalar, batch, replayer = _run_pair(
            lambda: _gemos_space(npages), trace
        )
        assert replayer.scalar_ops == 1
        assert replayer.fallbacks["fault"] == 1
        assert batch.stats["walk.aborted"] == 1
        assert _fingerprint(batch) == _fingerprint(scalar)
        _assert_pinned("fallback.demand_fault_one_op", scalar, batch)


class TestMonitorTransparentStaging:
    def test_thrashing_run_builds_only_surviving_entries(self, monkeypatch):
        """With an interference monitor installed, the kernel still
        stages walk fills as tuples: each run materializes at most one
        TLB's worth of entries, and the monitor's TLB attribution
        equals scalar replay's key for key."""
        npages = 512
        capacity = _tiny_config().tlb.entries
        built = []
        per_run = []

        def counting_entry(*args, **kwargs):
            built.append(args)
            return TlbEntry(*args, **kwargs)

        kernel = BatchReplayer._miss_run

        def counting_run(self, *args):
            before = len(built)
            result = kernel(self, *args)
            per_run.append(len(built) - before)
            return result

        monkeypatch.setattr(batch_module, "TlbEntry", counting_entry)
        monkeypatch.setattr(BatchReplayer, "_miss_run", counting_run)

        def run(batch):
            machine, _ = _premapped(npages, nvm=True)
            machine.install_interference_monitor(InterferenceMonitor())
            walker = machine.walker
            replayer = BatchReplayer(machine)
            for segment in range(8):
                # Alternate address spaces over the same pages: the
                # asid-tagged TLB keeps the other space's entries, so
                # fills evict them across processes.
                machine.install_context(1 + segment % 2, walker, None)
                trace = _thrash_trace(500 + segment, npages=npages)
                if batch:
                    replayer.replay(trace)
                else:
                    for vaddr, size, is_write in trace:
                        machine.access(vaddr, size, is_write)
            return machine, replayer

        scalar, _ = run(batch=False)
        batch, replayer = run(batch=True)
        assert replayer.scalar_ops == 0
        assert batch.stats["tlb.miss"] > 3600
        assert per_run and max(per_run) <= capacity
        pairs = batch.stats.with_prefix("interference.tlb.")
        assert any("_evicted_" in key for key in pairs)
        assert pairs == scalar.stats.with_prefix("interference.tlb.")
        assert _fingerprint(batch) == _fingerprint(scalar)


def _tally(replayer):
    """Non-zero fallback counts, after checking they split scalar_ops."""
    assert tuple(replayer.fallbacks) == FALLBACK_REASONS
    assert sum(replayer.fallbacks.values()) == replayer.scalar_ops
    return {reason: n for reason, n in replayer.fallbacks.items() if n}


class TestFallbackCounts:
    """``BatchReplayer.fallbacks`` splits ``scalar_ops`` by hazard
    category on the fallback-taxonomy traces."""

    def test_clean_thrash_never_falls_back(self):
        trace = _thrash_trace(2000, npages=512)
        replayer = replay_batch(_premapped(512, nvm=True)[0], trace)
        assert _tally(replayer) == {}

    def test_persist_hook(self):
        machine, _ = _premapped(256, nvm=True)
        machine.persist_hook = lambda kind, detail: None
        replayer = replay_batch(machine, _thrash_trace(2000, npages=256))
        assert set(_tally(replayer)) == {"persist_hook", "ladder"}
        assert replayer.scalar_ops == 2000

    def test_write_protect(self):
        machine, _ = _premapped(512, nvm=True, read_only_every=5)
        trace = _thrash_trace(3000, npages=512, write_every=2)
        tally = _tally(replay_batch(machine, trace))
        assert tally["write_protect"] > 0
        assert "fault" not in tally

    def test_multi_line(self):
        trace = [
            ((i % 100) * PAGE_SIZE + PAGE_SIZE - 64, PAGE_SIZE + 96, True)
            if i % 50 == 25
            else op
            for i, op in enumerate(_thrash_trace(2000, npages=512))
        ]
        tally = _tally(replay_batch(_premapped(512, nvm=True)[0], trace))
        assert tally["multi_line"] >= 2000 // 50

    def test_fault(self):
        machine = _gemos_space(256)
        tally = _tally(replay_batch(machine, _thrash_trace(2000, npages=512)))
        assert 0 < tally["fault"] <= machine.stats["walk.aborted"]

    def test_no_walker(self):
        machine, _ = _premapped(512, nvm=True)
        machine.tlb.on_evict = lambda entry: None
        tally = _tally(replay_batch(machine, _thrash_trace(2000, npages=512)))
        assert set(tally) <= {"no_walker", "ladder"}
        assert tally["no_walker"] > 0

    def test_chunk(self):
        machine, _ = _premapped(512, nvm=True)
        machine.attach_extension(HardwareExtension())
        tally = _tally(replay_batch(machine, _thrash_trace(1000, npages=512)))
        assert tally == {"chunk": 1000}

    def test_taxonomy_table_names_every_reason(self):
        """The EXPERIMENTS.md scalar-fallback taxonomy names, in its key
        column, exactly the reasons ``BatchReplayer.fallbacks`` counts;
        every row fills the column (a dash where it is no fallback)."""
        lines = EXPERIMENTS_MD.read_text(encoding="utf-8").splitlines()
        start = next(
            i
            for i, line in enumerate(lines)
            if line.startswith("| fallback trigger |")
        )
        header = [cell.strip() for cell in lines[start].strip("|").split("|")]
        column = header.index("`fallbacks` key")
        keys = set()
        rows = itertools.takewhile(
            lambda line: line.startswith("|"), lines[start + 2 :]
        )
        for row in rows:
            cell = row.strip("|").split("|")[column].strip()
            assert cell, row
            keys.update(re.findall(r"`([^`]+)`", cell))
        assert keys == set(FALLBACK_REASONS)
