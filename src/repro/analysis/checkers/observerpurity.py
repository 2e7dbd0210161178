"""observer-purity: machine-hook observers read but never mutate.

`InterferenceMonitor` (and any future observer wired into machine hook
points — `note_llc_fill`, `note_device`, `note_tlb_evict`,
`power_cycle`) runs *inside* both the scalar access path and the batch
kernel.  The fast path is only legal while observers are pure with
respect to simulated state: they may read machine structures and keep
their own bookkeeping, and they may bump counters in their own
``interference.`` namespace — but they must never mutate machine
hardware state, move the clock, charge cycles, or write foreign stat
keys, because the kernel calls `note_tlb_evict` while its TLB state is
still staged, where any such mutation would diverge from scalar order.
That hook receives only the victim's asid, so the kernel can keep its
staged fills as tuples.

Concretely, inside an observer class's hook closure this checker
flags: `advance()` calls and clock writes; counter bumps whose key is
not statically namespaced under ``interference.``; mutations that
reach through a *foreign* attribute (one assigned from machine-derived
objects in `bind`, e.g. `self._dram_channel`) rather than the
observer's own fresh containers; and resolved calls into methods of
other classes that are themselves impure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.core import AnalysisContext, Finding
from repro.analysis.graph import ProjectGraph, project_graph
from repro.analysis.registry import register
from repro.analysis.wholeprogram import SCALAR_MODULE, WholeProgramChecker

#: Defining any of these marks a class as a machine-hook observer.
HOOK_METHODS = ("note_device", "note_llc_fill", "note_tlb_evict")

#: All hook entry points whose closure must stay pure.
OBSERVER_ROOTS = HOOK_METHODS + ("power_cycle",)

#: The one counter namespace observers own.
OBSERVER_PREFIX = "interference."


def _self_chain(
    fn, chain: Sequence[str], depth: int = 0
) -> Optional[Tuple[str, ...]]:
    """Rewrite a receiver chain to be self-rooted via local aliases, or
    None when it does not lead back to ``self``."""
    if depth > 6 or not chain:
        return None
    root = chain[0]
    if root == "self":
        return tuple(chain)
    if root.startswith("@"):
        source = fn.local_sources.get(root[1:])
        if source and source[0] not in ("!call", "!iter"):
            return _self_chain(fn, list(source) + list(chain[1:]), depth + 1)
    return None


def _is_impure(graph: ProjectGraph, fid: str) -> bool:
    """Would calling this make an observer impure?  True when the callee
    itself advances, writes clocks, mutates, or bumps foreign keys."""
    fn = graph.function(fid)
    if fn is None:
        return False
    if fn.advances or fn.clock_writes or fn.mutations:
        return True
    effects = graph.local_effects(fid)
    if effects.dynamic_counters:
        return True
    for token in effects.counters:
        if not token.startswith(OBSERVER_PREFIX):
            return True
    for prefix in effects.prefix_counters:
        if not prefix.startswith(OBSERVER_PREFIX):
            return True
    return False


@register
class ObserverPurityChecker(WholeProgramChecker):
    id = "observer-purity"
    pragma = "observer-purity"
    description = (
        "machine-hook observers (InterferenceMonitor) read but never "
        "mutate machine state, the clock, or foreign stat keys"
    )
    required_modules = (SCALAR_MODULE,)

    def analyze(self, ctx: AnalysisContext) -> List[Finding]:
        graph = project_graph(ctx)
        findings: List[Finding] = []
        for module, summary in sorted(graph.summaries.items()):
            if summary.kind != "src":
                continue
            for cls in summary.classes.values():
                if not any(hook in cls.methods for hook in HOOK_METHODS):
                    continue
                findings.extend(self._check_observer(graph, module, cls))
        return findings

    def _check_observer(self, graph: ProjectGraph, module: str, cls) -> List[Finding]:
        summary = graph.summaries[module]
        rel = summary.rel
        # Same-class closure of the hook entry points: follow resolved
        # edges only while they stay on this class; cross-class edges
        # are judged, not traversed.
        closure: Set[str] = set()
        queue = [
            f"{module}:{cls.name}.{root}"
            for root in OBSERVER_ROOTS
            if root in cls.methods
        ]
        cross_edges: List[Tuple[str, str, int]] = []
        while queue:
            fid = queue.pop()
            if fid in closure or graph.function(fid) is None:
                continue
            closure.add(fid)
            for edge in graph.edges(fid):
                if edge.kind != "call":
                    continue
                target_module, _, target_qual = edge.target.partition(":")
                if target_module == module and target_qual.startswith(
                    f"{cls.name}."
                ):
                    queue.append(edge.target)
                else:
                    cross_edges.append((fid, edge.target, edge.line))

        findings: List[Finding] = []
        for fid in sorted(closure):
            findings.extend(self._check_member(graph, module, cls, rel, fid))
        for fid, target, line in sorted(cross_edges):
            if _is_impure(graph, target):
                qualname = fid.partition(":")[2]
                target_qual = target.partition(":")[2]
                findings.append(
                    self.site_finding(
                        rel,
                        line,
                        "impure-call",
                        f"observer {qualname} calls {target_qual}, which "
                        f"mutates simulated state or foreign stat keys",
                        "observers may only read machine structures and "
                        "update their own bookkeeping",
                    )
                )
        return findings

    def _check_member(
        self, graph: ProjectGraph, module: str, cls, rel: str, fid: str
    ) -> List[Finding]:
        fn = graph.function(fid)
        qualname = fid.partition(":")[2]
        findings: List[Finding] = []
        for _receiver, line in fn.advances:
            findings.append(
                self.site_finding(
                    rel,
                    line,
                    "advance",
                    f"observer {qualname} charges cycles via advance()",
                    "observers must not move simulated time",
                )
            )
        for _receiver, line in fn.clock_writes:
            findings.append(
                self.site_finding(
                    rel,
                    line,
                    "clock-write",
                    f"observer {qualname} writes a machine clock",
                    "observers must not move simulated time",
                )
            )
        effects = graph.local_effects(fid)
        for token, sites in sorted(effects.counters.items()):
            if token.startswith(OBSERVER_PREFIX):
                continue
            line = min(line for _path, line in sites)
            findings.append(
                self.site_finding(
                    rel,
                    line,
                    "foreign-counter",
                    f"observer {qualname} bumps stat key {token!r} "
                    f"outside the '{OBSERVER_PREFIX}*' namespace",
                    "observers own only interference.* keys",
                )
            )
        for prefix, sites in sorted(effects.prefix_counters.items()):
            if prefix.startswith(OBSERVER_PREFIX):
                continue
            line = min(line for _path, line in sites)
            findings.append(
                self.site_finding(
                    rel,
                    line,
                    "foreign-counter",
                    f"observer {qualname} bumps dynamically-built stat "
                    f"keys under prefix {prefix!r} outside "
                    f"'{OBSERVER_PREFIX}*'",
                    "observers own only interference.* keys",
                )
            )
        for sites in [sorted(effects.dynamic_counters)]:
            for _path, line in sites:
                findings.append(
                    self.site_finding(
                        rel,
                        line,
                        "opaque-counter",
                        f"observer {qualname} bumps a stat key the "
                        f"analysis cannot resolve statically",
                        "derive observer keys from interference.* "
                        "constants or prefixed builders",
                    )
                )
        for receiver, op, line in fn.mutations:
            chain = _self_chain(fn, receiver)
            if chain is None or len(chain) < 2:
                continue
            first = chain[1]
            if op == "setattr" and len(chain) == 2:
                continue  # rebinding an own slot on self
            if first in cls.foreign_attrs:
                findings.append(
                    self.site_finding(
                        rel,
                        line,
                        "foreign-mutation",
                        f"observer {qualname} mutates machine-derived "
                        f"state through self.{first} ({op})",
                        "observers may only mutate their own fresh "
                        "containers",
                    )
                )
        return findings
