"""The gemOS kernel analog.

Boots from the BIOS e820 map, builds one frame allocator per memory
technology (the NVM allocator's metadata is persistent), and implements
the system calls the paper's workloads use: the extended ``mmap`` with
``MAP_NVM``, ``munmap``, ``mprotect``, and demand paging.

The kernel is deliberately persistence-agnostic: it exposes *hook
points* — a page-table scheme that decides where tables live and what a
PTE update costs, and an event stream of OS-metadata changes — and
:mod:`repro.persist` subscribes to those to implement checkpointing,
crash and recovery.  This mirrors Kindle's layering, where process
persistence is a modification *of* gemOS rather than its core.

A *crash* models power failure: the machine drops volatile hardware
state and DRAM contents, and the kernel object itself must be thrown
away (kernel text/data live in DRAM).  Recovery constructs a fresh
kernel over the same machine and NVM store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.machine import Machine
from repro.common.errors import ConfigError, FaultError, SegmentationFault
from repro.common.units import CACHE_LINE, PAGE_SIZE
from repro.gemos.frames import FrameAllocator
from repro.gemos.pagetable import PageTable
from repro.gemos.process import Process, ProcessState
from repro.gemos.vma import MAP_NVM, PROT_READ, PROT_WRITE, AddressSpace, Vma
from repro.mem.hybrid import E820Type, MemType
from repro.mem.nvmstore import NvmObjectStore

#: Trap entry + register save + dispatch for a page fault.
FAULT_ENTRY_CYCLES = 300
#: Syscall entry/exit overhead.
SYSCALL_CYCLES = 150
#: VMA tree lookup / insertion bookkeeping.
VMA_OP_CYCLES = 60
#: Per-page kernel work during munmap besides PT/allocator updates.
UNMAP_PAGE_CYCLES = 40

#: ``listener(event, pid, payload)`` — OS metadata change notification.
EventListener = Callable[[str, int, dict], None]


@dataclass
class KernelConfig:
    """Boot-time kernel parameters."""

    #: Charge frame scrubbing on the fault path.  gemOS hands out
    #: frames from a pre-zeroed pool replenished off the critical path
    #: (zero-fill *semantics* always hold — fresh pages read as
    #: zeroes); enable this to model an OS that scrubs synchronously
    #: at fault time instead.
    charge_fault_zeroing: bool = False

    #: Reserve this many NVM frames at the bottom of the NVM range for
    #: the persistence area (saved states, redo log, v2p lists, SSP
    #: metadata) before user allocations begin.
    nvm_reserved_frames: int = 1024


class PageTableSchemeBase:
    """Interface the kernel needs from a page-table consistency scheme.

    Concrete schemes (*rebuild*, *persistent*) live in
    :mod:`repro.persist.schemes`; this default places page tables in
    DRAM with no consistency cost, which is what a non-persistent OS
    does.
    """

    name = "volatile"

    def bind(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def table_allocator(self) -> FrameAllocator:
        return self.kernel.dram_alloc

    def create_page_table(self, process: Process) -> PageTable:
        return PageTable(self.table_allocator(), self.pte_write_observer)

    def pte_write_observer(self, entry_paddr: int) -> None:
        """Charge one page-table entry mutation (default: cached write)."""
        self.kernel.machine.phys_line_access(entry_paddr, is_write=True)


class FrameReleasePolicy:
    """Interface the kernel needs from a frame reclamation policy.

    Every path that tears down a live translation (``sys_munmap``,
    ``sys_mremap`` shrink/move, process exit, tiering migration) goes
    through this hook instead of calling ``allocator.free`` directly.
    The default frees immediately, which is what a non-persistent OS
    does; :class:`repro.persist.reclaim.EpochFrameReclaimer` replaces
    it to *park* frames reachable from the committed checkpoint until
    the next checkpoint commit retires the reclamation epoch.
    """

    name = "direct"

    def bind(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def release_page(self, process: Process, vpn: int):
        """Clear ``vpn``'s translation and release its frame.

        Returns the removed PTE (or ``None`` if the page was never
        faulted in).  TLB shootdown stays with the caller.
        """
        assert process.page_table is not None
        pte = process.page_table.unmap(vpn)
        if pte is None:
            return None
        mem_type = self.kernel.machine.layout.mem_type_of_pfn(pte.pfn)
        # Direct policy: no committed checkpoint can name this frame.
        # repro: allow-persist(default policy frees immediately; epoch reclaimer overrides)
        self.kernel.allocator_for(mem_type).free(pte.pfn)
        return pte

    def release_frame(self, process: Process, pfn: int, mem_type: MemType) -> None:
        """Release a frame whose translation was repointed elsewhere
        (tiering migration: the vpn stays mapped, to a new frame)."""
        # repro: allow-persist(default policy frees immediately; epoch reclaimer overrides)
        self.kernel.allocator_for(mem_type).free(pfn)

    def prepare_release(self, process: Process, vpn: int) -> None:
        """First half of a batched release: write (but do not fence) any
        reclamation metadata ``release_page(vpn)`` will need.

        Callers tearing down a *range* call this for every page, then
        ``release_barrier()`` once, then ``release_page`` per page — so
        a single fence covers the whole range's park records while every
        record is still durable before its PTE clear.  The default
        policy keeps no metadata: no-op."""

    def release_barrier(self) -> None:
        """Second half of a batched release: fence metadata written by
        ``prepare_release`` since the last barrier.  No-op by default."""

    def note_remap(
        self,
        process: Process,
        old_vpn: int,
        new_vpn: int,
        pfn: int,
        mem_type: MemType,
    ) -> None:
        """An mremap move is about to clear ``old_vpn``'s PTE and remap
        the frame at ``new_vpn``.  No frame is released; the epoch
        policy records the torn-down *translation* so recovery can
        resurrect the committed view.  The caller fences the batch with
        ``release_barrier()`` before clearing the old PTEs."""


class Kernel:
    """The booted OS instance."""

    def __init__(
        self,
        machine: Machine,
        nvm_store: NvmObjectStore,
        scheme: Optional[PageTableSchemeBase] = None,
        config: Optional[KernelConfig] = None,
    ) -> None:
        self.machine = machine
        self.nvm_store = nvm_store
        self.config = config or KernelConfig()
        self.scheme = scheme or PageTableSchemeBase()
        self.scheme.bind(self)
        self.stats = machine.stats
        self.processes: Dict[int, Process] = {}
        self.current: Optional[Process] = None
        self._next_pid = 1
        self._listeners: List[EventListener] = []
        self.dram_alloc, self.nvm_alloc = self._parse_e820()
        self._nvm_reserved_used = 0
        self.frame_release: FrameReleasePolicy = FrameReleasePolicy()
        self.frame_release.bind(self)
        machine.power_on()

    def install_frame_release(self, policy: FrameReleasePolicy) -> None:
        """Replace the frame reclamation policy (persistence hook)."""
        self.frame_release = policy
        policy.bind(self)

    def reserve_nvm_area(self, name: str, nbytes: int) -> int:
        """Carve a metadata area out of the reserved NVM frames.

        Used by the persistence machinery and the SSP cache; returns
        the area's physical base address.
        """
        from repro.common.units import align_up

        nbytes = align_up(nbytes, PAGE_SIZE)
        limit = self.config.nvm_reserved_frames * PAGE_SIZE
        if self._nvm_reserved_used + nbytes > limit:
            raise ConfigError(
                f"reserved NVM area exhausted while placing {name!r}"
            )
        base = self.machine.layout.nvm_base + self._nvm_reserved_used
        self._nvm_reserved_used += nbytes
        self.stats.add("kernel.nvm_reserved_bytes", nbytes)
        return base

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def _parse_e820(self) -> Tuple[FrameAllocator, FrameAllocator]:
        dram_alloc: Optional[FrameAllocator] = None
        nvm_alloc: Optional[FrameAllocator] = None
        for entry in self.machine.layout.e820_map():
            lo = entry.base // PAGE_SIZE
            hi = (entry.base + entry.length) // PAGE_SIZE
            if entry.kind is E820Type.USABLE:
                dram_alloc = FrameAllocator(
                    MemType.DRAM, lo, hi, self.stats
                )
            elif entry.kind is E820Type.PMEM:
                reserved = self.config.nvm_reserved_frames
                if hi - lo <= reserved:
                    raise ConfigError("NVM range smaller than reserved area")
                nvm_alloc = FrameAllocator(
                    MemType.NVM,
                    lo + reserved,
                    hi,
                    self.stats,
                    machine=self.machine,
                    nvm_store=self.nvm_store,
                )
        if dram_alloc is None or nvm_alloc is None:
            raise ConfigError("e820 map must describe both DRAM and NVM")
        return dram_alloc, nvm_alloc

    def allocator_for(self, mem_type: MemType) -> FrameAllocator:
        return self.dram_alloc if mem_type is MemType.DRAM else self.nvm_alloc

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def add_listener(self, listener: EventListener) -> None:
        self._listeners.append(listener)

    def _emit(self, event: str, pid: int, **payload: object) -> None:
        for listener in self._listeners:
            listener(event, pid, payload)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def create_process(
        self,
        name: str,
        persistent: bool = True,
        pid: Optional[int] = None,
        address_space: Optional[AddressSpace] = None,
    ) -> Process:
        """Create a process; ``pid``/``address_space`` are supplied by
        the recovery path to reconstruct a saved context."""
        if pid is None:
            pid = self._next_pid
        self._next_pid = max(self._next_pid, pid + 1)
        process = Process(pid=pid, name=name, persistent=persistent)
        if address_space is not None:
            process.address_space = address_space
        process.page_table = self.scheme.create_page_table(process)
        process.state = ProcessState.READY
        self.processes[pid] = process
        self._emit("proc_create", pid, name=name, persistent=persistent)
        return process

    def switch_to(self, process: Process) -> None:
        """Context switch: point the hardware at this address space."""
        if process.pid not in self.processes:
            raise FaultError(f"unknown process {process.pid}")
        if self.current is not None and self.current is not process:
            self.current.state = ProcessState.READY
        self.current = process
        process.state = ProcessState.RUNNING
        assert process.page_table is not None
        self.machine.install_context(
            process.asid, process.page_table.hw_walk, self.handle_page_fault
        )

    def exit_process(self, process: Process) -> None:
        """Tear down a process: free data frames and page tables.

        The ``proc_exit`` event fires *before* teardown so the
        persistence layer can durably retire the saved context first; a
        crash mid-teardown then finds no recoverable state naming the
        freed frames (and the exiting process's parked frames are
        already drained, so the frees below are immediate).
        """
        self._emit("proc_exit", process.pid)
        with self.machine.os_region("exit"):
            assert process.page_table is not None
            for vpn, _pte in list(process.page_table.iter_leaves()):
                self.frame_release.release_page(process, vpn)
                self.machine.tlb.invalidate(process.asid, vpn)
            process.page_table.destroy()
        process.state = ProcessState.EXITED
        if self.current is process:
            self.current = None
        del self.processes[process.pid]

    # ------------------------------------------------------------------
    # system calls
    # ------------------------------------------------------------------

    def sys_mmap(
        self,
        process: Process,
        addr: Optional[int],
        length: int,
        prot: int,
        flags: int = 0,
        name: str = "anon",
    ) -> int:
        """The extended mmap: ``MAP_NVM`` selects NVM backing (Listing 1)."""
        with self.machine.os_region("syscall"):
            self.machine.advance(SYSCALL_CYCLES + VMA_OP_CYCLES)
            vma = process.address_space.map(addr, length, prot, flags, name)
        self.stats.add("sys.mmap")
        self._emit(
            "mmap",
            process.pid,
            start=vma.start,
            end=vma.end,
            writable=vma.writable,
            mem_type=vma.mem_type.value,
            name=vma.name,
        )
        return vma.start

    def sys_munmap(self, process: Process, addr: int, length: int) -> None:
        """Unmap a range: trims VMAs, frees frames, clears PTEs and TLB."""
        with self.machine.os_region("syscall"):
            self.machine.advance(SYSCALL_CYCLES)
            removed = process.address_space.unmap(addr, length)
            assert process.page_table is not None
            for start, end, vma in removed:
                if vma.mem_type is MemType.NVM:
                    # Batch reclamation metadata: every park record for
                    # the range is written, then fenced once, before
                    # any PTE below is cleared.
                    for vpn in range(start // PAGE_SIZE, end // PAGE_SIZE):
                        self.frame_release.prepare_release(process, vpn)
                    self.frame_release.release_barrier()
                for vpn in range(start // PAGE_SIZE, end // PAGE_SIZE):
                    self.machine.advance(UNMAP_PAGE_CYCLES)
                    pte = self.frame_release.release_page(process, vpn)
                    self.machine.tlb.invalidate(process.asid, vpn)
                    if pte is None:
                        continue
                    if vma.mem_type is MemType.NVM:
                        process.pending_nvm_ops.append(("unmap", vpn, 0))
        self.stats.add("sys.munmap")
        self._emit("munmap", process.pid, start=addr, length=length)

    def sys_mremap(
        self, process: Process, old_addr: int, old_length: int, new_length: int
    ) -> int:
        """Grow, shrink or move a mapping, relocating live pages.

        Shrinking trims the tail (frames freed).  Growing extends in
        place when the room exists, otherwise moves the VMA and
        re-points every live PTE at its existing frame (no copies, as
        on Linux).  Returns the (possibly new) start address.
        """
        with self.machine.os_region("syscall"):
            self.machine.advance(SYSCALL_CYCLES + VMA_OP_CYCLES)
            vma = process.address_space.find(old_addr)
            if vma is None or vma.start != old_addr or vma.length != old_length:
                raise FaultError(f"mremap: no exact VMA at {old_addr:#x}")
            assert process.page_table is not None
            if new_length == old_length:
                self.stats.add("sys.mremap")
                return old_addr
        if new_length < old_length:
            self.sys_munmap(
                process, old_addr + new_length, old_length - new_length
            )
            self.stats.add("sys.mremap")
            return old_addr
        # Grow: try in place.
        prot = PROT_READ | (PROT_WRITE if vma.writable else 0)
        flags = MAP_NVM if vma.mem_type is MemType.NVM else 0
        grow_at = old_addr + old_length
        with self.machine.os_region("syscall"):
            in_place = not process.address_space._overlaps(  # noqa: SLF001
                grow_at, old_addr + new_length
            )
        if in_place:
            self.sys_mmap(
                process, grow_at, new_length - old_length, prot, flags, vma.name
            )
            self.stats.add("sys.mremap")
            return old_addr
        # Move: map a fresh range, transplant live translations.
        new_addr = self.sys_mmap(
            process, None, new_length, prot, flags, vma.name
        )
        with self.machine.os_region("syscall"):
            old_vpn = old_addr // PAGE_SIZE
            new_vpn = new_addr // PAGE_SIZE
            if vma.mem_type is MemType.NVM:
                # Park the committed translations (if any) durably —
                # one fence for the whole range — before any old PTE
                # disappears.
                for offset in range(old_length // PAGE_SIZE):
                    pte = process.page_table.lookup(old_vpn + offset)
                    if pte is not None:
                        self.frame_release.note_remap(
                            process,
                            old_vpn + offset,
                            new_vpn + offset,
                            pte.pfn,
                            vma.mem_type,
                        )
                self.frame_release.release_barrier()
            moved = 0
            for offset in range(old_length // PAGE_SIZE):
                pte = process.page_table.lookup(old_vpn + offset)
                self.machine.tlb.invalidate(process.asid, old_vpn + offset)
                if pte is None:
                    continue
                process.page_table.unmap(old_vpn + offset)
                process.page_table.map(
                    new_vpn + offset, pte.pfn, writable=pte.writable
                )
                if vma.mem_type is MemType.NVM:
                    process.pending_nvm_ops.append(("unmap", old_vpn + offset, 0))
                    process.pending_nvm_ops.append(
                        ("map", new_vpn + offset, pte.pfn)
                    )
                moved += 1
            self.stats.add("sys.mremap_moved_pages", moved)
        # Retire the old layout without freeing the transplanted frames
        # (their PTEs are already gone).
        with self.machine.os_region("syscall"):
            process.address_space.unmap(old_addr, old_length)
        self.stats.add("sys.mremap")
        self._emit(
            "munmap", process.pid, start=old_addr, length=old_length
        )
        return new_addr

    def sys_mprotect(
        self, process: Process, addr: int, length: int, prot: int
    ) -> None:
        """Change protection; updates live PTEs and invalidates the TLB."""
        with self.machine.os_region("syscall"):
            self.machine.advance(SYSCALL_CYCLES + VMA_OP_CYCLES)
            affected = process.address_space.protect(addr, length, prot)
            assert process.page_table is not None
            for vma in affected:
                for vpn in vma.vpn_range():
                    if process.page_table.protect(vpn, vma.writable):
                        self.machine.tlb.invalidate(process.asid, vpn)
        self.stats.add("sys.mprotect")
        self._emit("mprotect", process.pid, start=addr, length=length, prot=prot)

    # ------------------------------------------------------------------
    # demand paging
    # ------------------------------------------------------------------

    def handle_page_fault(self, vaddr: int, is_write: bool) -> None:
        """Demand-page ``vaddr`` for the current process."""
        process = self.current
        if process is None:
            raise FaultError("page fault with no current process")
        with self.machine.os_region("fault"):
            self.machine.advance(FAULT_ENTRY_CYCLES)
            vma = process.address_space.find(vaddr)
            if vma is None:
                raise SegmentationFault(
                    f"pid {process.pid}: no VMA for {vaddr:#x}"
                )
            if is_write and not vma.writable:
                raise SegmentationFault(
                    f"pid {process.pid}: write to read-only {vaddr:#x}"
                )
            vpn = vaddr // PAGE_SIZE
            assert process.page_table is not None
            existing = process.page_table.lookup(vpn)
            if existing is not None:
                # Spurious fault (e.g. raced protection change): nothing
                # to allocate.
                self.stats.add("fault.spurious")
                return
            pfn = self._allocate_user_page(vma)
            process.page_table.map(vpn, pfn, writable=vma.writable)
            if vma.mem_type is MemType.NVM:
                process.pending_nvm_ops.append(("map", vpn, pfn))
            self.stats.add("fault.demand")
            self._emit(
                "fault_mapped",
                process.pid,
                vpn=vpn,
                pfn=pfn,
                mem_type=vma.mem_type.value,
            )

    def _allocate_user_page(self, vma: Vma) -> int:
        pfn = self.allocator_for(vma.mem_type).alloc()
        if self.config.charge_fault_zeroing:
            self.machine.bulk_lines(
                PAGE_SIZE // CACHE_LINE, vma.mem_type, is_write=True
            )
        # Zero-fill semantics always hold (pre-zeroed frame pool).
        self.machine.physmem.zero_page(pfn)
        return pfn

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure.  After this the kernel object is dead; build a
        new :class:`Kernel` over the same machine + NVM store and run
        recovery (see :mod:`repro.persist.recovery`)."""
        self.machine.power_fail()
        self.processes.clear()
        self.current = None
        self._listeners.clear()
        self.stats.add("kernel.crashes")
