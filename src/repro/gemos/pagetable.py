"""Four-level x86-64-style page table.

Table nodes occupy real physical frames (allocated from either the DRAM
or the NVM allocator depending on the page-table scheme), so a hardware
walk is four dependent physical accesses through the cache hierarchy —
exactly what makes the *persistent* scheme's NVM-resident tables mostly
free for translation ("access to page table entries for address
translation gets the benefit of multiple levels of TLBs and
intermediate caches", Section III-A).

Every mutation of a table entry reports the entry's physical address to
an installed ``write_observer``; the page-table schemes use that hook to
charge either a plain cached DRAM write (*rebuild*) or a logged,
flushed, fenced NVM update (*persistent*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.machine import WalkRecord
from repro.common.errors import FaultError
from repro.gemos.frames import FrameAllocator

#: 9 translation bits per level, 4 levels, 4 KiB leaves.
LEVELS = 4
BITS_PER_LEVEL = 9
ENTRIES_PER_TABLE = 1 << BITS_PER_LEVEL
PTE_SIZE = 8
PAGE_SHIFT = 12


@dataclass
class Pte:
    """Leaf page-table entry (plus the HSCC access-count extension)."""

    pfn: int
    writable: bool = True
    #: HSCC extension: per-page access count, incremented on LLC miss.
    access_count: int = 0


class _Node:
    """One table at one level, resident in physical frame ``frame``."""

    __slots__ = ("frame", "level", "entries")

    def __init__(self, frame: int, level: int) -> None:
        self.frame = frame
        self.level = level
        #: index -> child _Node (level > 0) or Pte (level == 0).
        self.entries: Dict[int, object] = {}

    def entry_paddr(self, index: int) -> int:
        return (self.frame << PAGE_SHIFT) + index * PTE_SIZE


#: Index shift per level, root first (the hardware walk order).
_WALK_SHIFTS = tuple(BITS_PER_LEVEL * level for level in range(LEVELS - 1, -1, -1))
_INDEX_MASK = ENTRIES_PER_TABLE - 1


def _index_at(vpn: int, level: int) -> int:
    return (vpn >> (BITS_PER_LEVEL * level)) & _INDEX_MASK


class PageTable:
    """A process page table over frames from ``allocator``."""

    def __init__(
        self,
        allocator: FrameAllocator,
        write_observer: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.allocator = allocator
        #: Called with the physical address of every mutated entry;
        #: installed by the page-table scheme to charge consistency.
        self.write_observer = write_observer
        self.root = _Node(allocator.alloc(), LEVELS - 1)
        self._valid_leaves = 0
        #: Count of entry mutations since construction (scheme metrics).
        self.entry_writes = 0
        #: vpn -> completed walk record.  Each mutation drops its vpn's
        #: record, which is exact: a table is reclaimed only once no
        #: leaf is left under it, so no other record can name it.
        self._walks: Dict[int, WalkRecord] = {}

    # ------------------------------------------------------------------
    # software (kernel) operations
    # ------------------------------------------------------------------

    def _observe_write(self, paddr: int) -> None:
        self.entry_writes += 1
        if self.write_observer is not None:
            self.write_observer(paddr)

    def map(self, vpn: int, pfn: int, writable: bool = True) -> int:
        """Install ``vpn -> pfn``; returns the number of entries written
        (1 for the leaf plus 1 per newly created intermediate table)."""
        self._walks.pop(vpn, None)
        node = self.root
        writes = 0
        for level in range(LEVELS - 1, 0, -1):
            index = _index_at(vpn, level)
            child = node.entries.get(index)
            if child is None:
                child = _Node(self.allocator.alloc(), level - 1)
                node.entries[index] = child
                self._observe_write(node.entry_paddr(index))
                writes += 1
            assert isinstance(child, _Node)
            node = child
        index = _index_at(vpn, 0)
        node.entries[index] = Pte(pfn=pfn, writable=writable)
        self._observe_write(node.entry_paddr(index))
        writes += 1
        self._valid_leaves += 1
        return writes

    def unmap(self, vpn: int) -> Optional[Pte]:
        """Remove the leaf mapping for ``vpn``.

        Table nodes left empty are reclaimed bottom-up (their frames
        return to the allocator and the parent entries are cleared), so
        sparse populations built by the stride experiment really do
        rebuild multiple levels on every churn round.
        """
        self._walks.pop(vpn, None)
        path: List[Tuple[_Node, int]] = []
        node = self.root
        for level in range(LEVELS - 1, 0, -1):
            index = _index_at(vpn, level)
            child = node.entries.get(index)
            if not isinstance(child, _Node):
                return None
            path.append((node, index))
            node = child
        index = _index_at(vpn, 0)
        pte = node.entries.pop(index, None)
        if pte is None:
            return None
        assert isinstance(pte, Pte)
        self._observe_write(node.entry_paddr(index))
        self._valid_leaves -= 1
        # Reclaim now-empty tables bottom-up (never the root).
        child = node
        for parent, parent_index in reversed(path):
            if child.entries:
                break
            del parent.entries[parent_index]
            self._observe_write(parent.entry_paddr(parent_index))
            self.allocator.free(child.frame)
            child = parent
        return pte

    def lookup(self, vpn: int) -> Optional[Pte]:
        """Software walk without timing (kernel internal use)."""
        node = self.root
        for level in range(LEVELS - 1, 0, -1):
            child = node.entries.get(_index_at(vpn, level))
            if not isinstance(child, _Node):
                return None
            node = child
        pte = node.entries.get(_index_at(vpn, 0))
        return pte if isinstance(pte, Pte) else None

    def protect(self, vpn: int, writable: bool) -> bool:
        """Change a leaf's protection; returns False if unmapped."""
        self._walks.pop(vpn, None)
        node = self.root
        for level in range(LEVELS - 1, 0, -1):
            child = node.entries.get(_index_at(vpn, level))
            if not isinstance(child, _Node):
                return False
            node = child
        index = _index_at(vpn, 0)
        pte = node.entries.get(index)
        if not isinstance(pte, Pte):
            return False
        pte.writable = writable
        self._observe_write(node.entry_paddr(index))
        return True

    def update_pfn(self, vpn: int, pfn: int) -> bool:
        """Point an existing leaf at a new frame (HSCC migration)."""
        self._walks.pop(vpn, None)
        node = self.root
        for level in range(LEVELS - 1, 0, -1):
            child = node.entries.get(_index_at(vpn, level))
            if not isinstance(child, _Node):
                return False
            node = child
        index = _index_at(vpn, 0)
        pte = node.entries.get(index)
        if not isinstance(pte, Pte):
            return False
        pte.pfn = pfn
        self._observe_write(node.entry_paddr(index))
        return True

    def iter_leaves(self) -> Iterator[Tuple[int, Pte]]:
        """All valid ``(vpn, pte)`` mappings, ascending by vpn."""

        def _walk(node: _Node, vpn_prefix: int) -> Iterator[Tuple[int, Pte]]:
            for index in sorted(node.entries):
                entry = node.entries[index]
                child_prefix = (vpn_prefix << BITS_PER_LEVEL) | index
                if isinstance(entry, _Node):
                    yield from _walk(entry, child_prefix)
                else:
                    assert isinstance(entry, Pte)
                    yield child_prefix, entry

        yield from _walk(self.root, 0)

    @property
    def valid_leaves(self) -> int:
        return self._valid_leaves

    def table_count(self) -> int:
        """Number of table nodes (all levels), for footprint accounting."""

        def _count(node: _Node) -> int:
            return 1 + sum(
                _count(child)
                for child in node.entries.values()
                if isinstance(child, _Node)
            )

        return _count(self.root)

    def destroy(self) -> None:
        """Free every table frame back to the allocator (process exit)."""

        def _free(node: _Node) -> None:
            for child in node.entries.values():
                if isinstance(child, _Node):
                    _free(child)
            self.allocator.free(node.frame)

        _free(self.root)
        self._walks.clear()
        self.root = _Node.__new__(_Node)  # poison further use
        self._valid_leaves = 0

    # ------------------------------------------------------------------
    # hardware walk
    # ------------------------------------------------------------------

    def hw_walk(self, vpn: int) -> WalkRecord:
        """The page-table walker, as data: ``(pte_paddrs, pfn, writable)``.

        ``pte_paddrs`` is a tuple of the physical address of every entry
        the hardware reads, root first, ending at the aborting entry
        when the walk faults (``pfn`` is then ``None``).  The walk is
        pure — no cycles, no stats, no simulated mutation — so callers
        may run it as often as they like; the machine charges the entry
        reads through the cache hierarchy itself
        (:meth:`Machine.install_context`).  Completed records are
        memoized until a mutation of their vpn.
        """
        record = self._walks.get(vpn)
        if record is not None:
            return record
        # _index_at and _Node.entry_paddr inlined: this runs once per
        # memo miss.
        pte_paddrs: List[int] = []
        entry = self.root
        for shift in _WALK_SHIFTS:
            index = (vpn >> shift) & _INDEX_MASK
            pte_paddrs.append((entry.frame << PAGE_SHIFT) + index * PTE_SIZE)
            entry = entry.entries.get(index)
            if entry is None:
                return tuple(pte_paddrs), None, False
        record = tuple(pte_paddrs), entry.pfn, entry.writable
        self._walks[vpn] = record
        return record

    def peek(self, vpn: int) -> Optional[Tuple[int, bool]]:
        """The translation :meth:`hw_walk` finds: ``(pfn, writable)`` or
        ``None``."""
        _, pfn, writable = self.hw_walk(vpn)
        return None if pfn is None else (pfn, writable)


class PageTableError(FaultError):
    """Raised on structurally invalid page-table operations."""
