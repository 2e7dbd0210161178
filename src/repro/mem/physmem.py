"""Sparse physical memory contents with value-level persistence.

Data pages hold real bytes so that persistence claims can be validated
by value, not just by cycle accounting: a store to an NVM frame must
read back identically after a simulated power failure, while DRAM
frames lose their contents.

Frames are materialized lazily (zero-filled) the first time they are
touched, so configuring 5 GB of simulated memory costs nothing until
pages are used.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import FaultError
from repro.common.units import PAGE_SIZE
from repro.mem.hybrid import HybridLayout, MemType

_ZERO_PAGE = bytes(PAGE_SIZE)


class PhysicalMemory:
    """Byte-addressable backing store over a :class:`HybridLayout`."""

    def __init__(self, layout: HybridLayout) -> None:
        self.layout = layout
        self._frames: Dict[int, bytearray] = {}

    def _frame(self, pfn: int) -> bytearray:
        if not self.layout.contains_pfn(pfn):
            raise FaultError(f"pfn {pfn:#x} outside memory map")
        frame = self._frames.get(pfn)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[pfn] = frame
        return frame

    def write(self, paddr: int, data: bytes) -> None:
        """Store ``data`` at physical address ``paddr`` (may span pages)."""
        offset = paddr % PAGE_SIZE
        pfn = paddr // PAGE_SIZE
        pos = 0
        while pos < len(data):
            chunk = min(len(data) - pos, PAGE_SIZE - offset)
            self._frame(pfn)[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            pfn += 1
            offset = 0

    def read(self, paddr: int, size: int) -> bytes:
        """Load ``size`` bytes from physical address ``paddr``."""
        if size < 0:
            raise ValueError(f"negative read size {size}")
        offset = paddr % PAGE_SIZE
        pfn = paddr // PAGE_SIZE
        out = bytearray()
        remaining = size
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - offset)
            frame = self._frames.get(pfn)
            if frame is None:
                if not self.layout.contains_pfn(pfn):
                    raise FaultError(f"pfn {pfn:#x} outside memory map")
                out.extend(b"\x00" * chunk)
            else:
                out.extend(frame[offset : offset + chunk])
            remaining -= chunk
            pfn += 1
            offset = 0
        return bytes(out)

    def copy_page(self, src_pfn: int, dst_pfn: int) -> None:
        """Copy one whole frame (used by HSCC migration and SSP merge)."""
        src = self._frames.get(src_pfn)
        if src is None:
            # Source never written: destination becomes zeroes.
            if not self.layout.contains_pfn(src_pfn):
                raise FaultError(f"pfn {src_pfn:#x} outside memory map")
            self._frames.pop(dst_pfn, None)
            self._frame(dst_pfn)  # materialize zeroed
            return
        dst = self._frame(dst_pfn)
        dst[:] = src

    def zero_page(self, pfn: int) -> None:
        """Clear one frame (fresh allocation)."""
        frame = self._frames.get(pfn)
        if frame is not None:
            # In place: callers may hold the frame object.
            frame[:] = _ZERO_PAGE
        else:
            self._frame(pfn)

    def page_snapshot(self, pfn: int) -> Optional[bytes]:
        """Immutable copy of a frame's bytes, or ``None`` if untouched."""
        frame = self._frames.get(pfn)
        return bytes(frame) if frame is not None else None

    def power_fail(self) -> int:
        """Simulate power loss: DRAM frames lose their contents.

        NVM frames survive untouched.  Returns the number of frames
        dropped.
        """
        dram_lo, dram_hi = self.layout.pfn_range(MemType.DRAM)
        dropped = [pfn for pfn in self._frames if dram_lo <= pfn < dram_hi]
        for pfn in dropped:
            del self._frames[pfn]
        return len(dropped)

    @property
    def resident_frames(self) -> int:
        """Number of frames materialized so far."""
        return len(self._frames)
