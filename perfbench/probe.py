"""Host-speed probe: converts host seconds into reference seconds.

On a shared host the same execution can take 30% longer from one
minute to the next while neighbours load the machine.  The benchmark
runs this fixed kernel between its timed calls and scales each call's
host seconds by ``REFERENCE_S`` over the mean of the probes on either
side of it, so a slow host moment slows the probe as it slows the
simulator and largely cancels out.  The kernel is the benchmark's own
code -- an LRU cache simulation in pure Python over a few MiB of
state, the same kind of interpreter and memory work as the simulator --
so no change to the simulator can move it.
"""

from __future__ import annotations

import time

#: Probe seconds that define one reference second: about the probe's
#: typical time on a shared 2-vCPU Intel Xeon (2.1 GHz) VM, Python 3.11.
REFERENCE_S = 0.25
_STEPS = 120_000
_SETS, _WAYS, _LINES = 4096, 8, 1 << 17
_MEMORY = 1 << 22


class _LruSet:
    __slots__ = ("lines", "hits", "misses")

    def __init__(self) -> None:
        self.lines = {}
        self.hits = 0
        self.misses = 0

    def touch(self, line: int, dirty: bool) -> bool:
        lines = self.lines
        if line in lines:
            lines[line] = lines.pop(line) or dirty
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= _WAYS:
            del lines[next(iter(lines))]
        lines[line] = dirty
        return False


def probe_s() -> float:
    """Host seconds the fixed probe kernel takes right now."""
    sets = [_LruSet() for _ in range(_SETS)]
    memory = bytearray(_MEMORY)
    counters = {}
    state = 12345
    start = time.perf_counter()
    for _ in range(_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = (state >> 4) % _LINES
        key = "hit" if sets[line % _SETS].touch(line, state & 1 == 1) else "miss"
        counters[key] = counters.get(key, 0) + memory[state % _MEMORY] + 1
    return time.perf_counter() - start


class HostSpeed:
    """Probes between timed calls.

    Call :meth:`scale` right after each timed call: it probes once more
    and returns the reference seconds per host second for the call,
    from the probes on both sides of it (each probe serves the call
    before it and the call after it).
    """

    def __init__(self) -> None:
        self._last = probe_s()

    def scale(self) -> float:
        now = probe_s()
        scale = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return scale
