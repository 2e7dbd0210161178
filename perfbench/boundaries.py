"""Layer-boundary tracing, installed from outside the simulator.

Each :class:`Boundary` names one layer crossing and the public
functions that make it.  :class:`Tracer` replaces those functions on
their classes (or modules) with timing wrappers for the duration of a
traced execution and restores the originals afterwards; the simulator's
own source is never touched, and the wrappers only read the host clock,
so a traced execution produces the same stats dump and final clock as
an untraced one (the benchmark checks this on every traced run).

Hot boundaries (millions of calls) aggregate in place: calls, total
time, and the time covered by nested boundaries.  Coarse boundaries
additionally keep one span per call — name, start, end and the id of
the enclosing span — which the benchmark writes out when it ends.
A boundary's self time is its total minus the time of the boundaries
nested inside it.

Objects capture bound methods when they are built (the kernel installs
``PageTable.hw_walk`` and ``Kernel.handle_page_fault`` into the machine
at every context switch, timers hold ``checkpoint_all`` and
``migrate``), so the tracer must be installed before the systems it
should see are created.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Boundary:
    name: str
    module: str
    #: Class holding the functions; ``""`` for module-level functions.
    owner: str
    attrs: Tuple[str, ...]
    #: Keep one span per call (coarse boundaries only).
    span: bool


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("mem.zero_page", "repro.mem.physmem", "PhysicalMemory", ("zero_page",), False),
    Boundary("gemos.fault", "repro.gemos.kernel", "Kernel", ("handle_page_fault",), True),
    Boundary(
        "gemos.syscall",
        "repro.gemos.kernel",
        "Kernel",
        ("sys_mmap", "sys_munmap", "sys_mremap", "sys_mprotect"),
        True,
    ),
    Boundary(
        "gemos.pt_update",
        "repro.gemos.pagetable",
        "PageTable",
        ("map", "unmap", "protect", "update_pfn"),
        False,
    ),
    Boundary("gemos.walk", "repro.gemos.pagetable", "PageTable", ("hw_walk", "peek"), False),
    Boundary("gemos.switch", "repro.gemos.kernel", "Kernel", ("switch_to",), False),
    Boundary(
        "persist.checkpoint",
        "repro.persist.checkpoint",
        "PersistenceManager",
        ("checkpoint_all",),
        True,
    ),
    Boundary("arch.access", "repro.arch.machine", "Machine", ("access",), False),
    Boundary("arch.phys_line", "repro.arch.machine", "Machine", ("phys_line_access",), False),
    Boundary("arch.bulk", "repro.arch.machine", "Machine", ("bulk_lines", "copy_page"), False),
    Boundary("prep.replay_run", "repro.prep.codegen", "ReplayProgram", ("run",), True),
    Boundary("replay.batch", "repro.replay.batch", "BatchReplayer", ("replay",), True),
    Boundary("hscc.migrate", "repro.hscc.manager", "HsccManager", ("migrate",), True),
    Boundary("workloads.generate", "repro.workloads.ycsb", "", ("generate_ycsb",), True),
    Boundary(
        "workloads.generate", "repro.workloads.traffic", "ClientPopulation", ("generate",), True
    ),
    Boundary(
        "workloads.provision", "repro.workloads.traffic", "TrafficScheduler", ("provision",), True
    ),
)

BOUNDARY_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(b.name for b in BOUNDARIES))

#: One recorded span: (id, parent id or None, boundary, start s, end s).
Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """Timing wrappers over ``boundaries`` for one traced execution."""

    def __init__(self, boundaries: Tuple[Boundary, ...] = BOUNDARIES) -> None:
        self.boundaries = boundaries
        #: boundary -> [calls, total seconds, nested-boundary seconds]
        self.totals: Dict[str, List[float]] = {
            boundary.name: [0, 0.0, 0.0] for boundary in boundaries
        }
        self.spans: List[Optional[Span]] = []
        #: Nested-boundary time per open call; slot 0 is the top level,
        #: so after a run it holds the time covered by any boundary.
        self._nested: List[float] = [0.0]
        self._open_spans: List[Optional[int]] = [None]
        self._patched: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    @property
    def covered_s(self) -> float:
        return self._nested[0]

    def install(self) -> None:
        """Wrap every boundary function of the imported simulator."""
        for boundary in self.boundaries:
            module = importlib.import_module(boundary.module)
            owner = getattr(module, boundary.owner) if boundary.owner else module
            for attr in boundary.attrs:
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, boundary))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_s(self, name: str) -> float:
        _, total, nested = self.totals[name]
        return total - nested

    def calls(self, name: str) -> int:
        return int(self.totals[name][0])

    def _wrap(self, fn, boundary: Boundary):
        slot = self.totals[boundary.name]
        nested = self._nested
        clock = time.perf_counter

        if not boundary.span:

            @functools.wraps(fn)
            def aggregate(*args, **kwargs):
                nested.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += nested.pop()
                    nested[-1] += elapsed

            return aggregate

        spans = self.spans
        open_spans = self._open_spans
        origin = self._origin
        name = boundary.name

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(span_id)
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                open_spans.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += nested.pop()
                nested[-1] += elapsed
                spans[span_id] = (span_id, parent, name, start - origin, end - origin)

        return spanned
