"""Set-associative write-back cache with true-LRU replacement.

Lines are identified by their global line number (physical address
divided by the 64-byte line size).  Each set is a dict mapping line
number to a dirty flag; Python dicts preserve insertion order, so LRU
is maintained by delete-and-reinsert on every touch.

A :class:`Cache` holds one level's state, geometry and stat keys.  The
hit, fill and victim logic of the whole hierarchy lives in one place,
:meth:`repro.arch.machine.Machine.phys_line_access`, which works on
these sets directly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import CacheConfig


class Cache:
    """One cache level."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self.assoc = config.assoc
        self.num_sets = config.num_sets
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        # Stat keys are precomputed: the line path bumps them once per
        # line per cache level, where f-string formatting would dominate.
        lower = self.name.lower()
        self._hit_key = f"{lower}.hit"
        self._miss_key = f"{lower}.miss"
        self._evictions_key = f"{lower}.evictions"

    def _set_for(self, line: int) -> Dict[int, bool]:
        return self._sets[line % self.num_sets]

    def contains(self, line: int) -> bool:
        """Probe without touching LRU or stats (snoop)."""
        return line in self._set_for(line)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns its dirty bit (False if absent)."""
        cache_set = self._set_for(line)
        return cache_set.pop(line, False)

    def clean(self, line: int) -> bool:
        """Clear the dirty bit of ``line`` keeping it resident (clwb).

        Returns True if the line was present and dirty.
        """
        cache_set = self._set_for(line)
        if cache_set.get(line):
            cache_set[line] = False
            return True
        return False

    def drop_all(self) -> None:
        """Power cycle: all contents (including dirty lines) are lost."""
        for cache_set in self._sets:
            cache_set.clear()

    def dirty_lines(self) -> List[int]:
        """All resident dirty line numbers (flush machinery)."""
        return [
            line
            for cache_set in self._sets
            for line, dirty in cache_set.items()
            if dirty
        ]

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
