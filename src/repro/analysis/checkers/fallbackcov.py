"""fallback-coverage: every unmodelable scalar effect has a guard.

The batch kernel runs ops against live structures, but some
scalar behavior is *injected* — page walkers, fault handlers, persist
hooks, hardware-extension buses, timer callbacks, os-mode accounting.
The kernel cannot model those; its contract is to detect them in the
eligibility precheck and fall back to the scalar path.

This checker closes the loop three ways for every dynamic boundary the
call graph finds reachable from `Machine.access`:

1. the boundary must belong to a known fallback *category* (an
   unclassified boundary means someone added a new injection point the
   kernel has never heard of);
2. the batch module must carry a guard for the category — the
   attribute(s) the eligibility/probe code inspects (`_fast_ok`,
   `_mode_stack`, `persist_hook`, `walker`, the walk record's
   `writable`, timer-deadline peeks) must actually appear in its
   condition expressions;
3. the category must be documented as a row of the scalar-fallback
   taxonomy table in EXPERIMENTS.md, so the docs and the code cannot
   drift apart silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.core import AnalysisContext, Finding
from repro.analysis.graph import project_graph
from repro.analysis.registry import register
from repro.analysis.wholeprogram import (
    BATCH_MODULE,
    BATCH_ROOTS,
    SCALAR_ROOTS,
    WholeProgramChecker,
    resolve_roots,
)

_TAXONOMY_HEADING = "scalar-fallback taxonomy"


@dataclass(frozen=True)
class Category:
    """One fallback class: guard evidence + taxonomy row pattern."""

    #: attributes, any of which counts as the kernel-side guard when it
    #: appears inside a condition expression of the batch module.
    guard_attrs: Tuple[str, ...]
    #: case-insensitive regex that must match inside the taxonomy table.
    taxonomy: str


CATEGORIES: Dict[str, Category] = {
    "extensions": Category(("_fast_ok",), r"hardware extension"),
    "persist_hook": Category(("persist_hook",), r"persist hook"),
    "walker": Category(("walker",), r"walk record"),
    "fault_handler": Category(("writable",), r"page fault"),
    "timer_callback": Category(("timers", "fire_due"), r"timer deadline"),
    "os-mode": Category(("_mode_stack",), r"os-mode transition"),
}


def _condition_attrs(tree: ast.Module) -> Set[str]:
    """Attribute/name identifiers appearing inside condition expressions
    (``if``/``while``/ternary/assert/comparison/boolean operands) plus
    called method names — the vocabulary of the kernel's guards."""
    attrs: Set[str] = set()

    def harvest(expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                attrs.add(node.id)

    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            harvest(node.test)
        elif isinstance(node, ast.Assert):
            harvest(node.test)
        elif isinstance(node, (ast.Compare, ast.BoolOp)):
            harvest(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attrs.add(node.func.attr)
    return attrs


@register
class FallbackCoverageChecker(WholeProgramChecker):
    id = "fallback-coverage"
    pragma = "fallback-coverage"
    description = (
        "every scalar-only effect (walker, fault, persist, extensions, "
        "timers, os-mode) has a kernel fallback guard and a taxonomy row"
    )

    def analyze(self, ctx: AnalysisContext) -> List[Finding]:
        graph = project_graph(ctx)
        scalar = graph.transitive(resolve_roots(graph, SCALAR_ROOTS))
        batch_file = ctx.by_module[BATCH_MODULE]
        guard_attrs = _condition_attrs(batch_file.tree)
        kernel_fid = graph.find_function(BATCH_ROOTS[0])
        kernel_fn = graph.function(kernel_fid) if kernel_fid else None
        kernel_line = kernel_fn.line if kernel_fn else 1

        taxonomy = self._taxonomy_text(ctx)
        findings: List[Finding] = []

        observed: Dict[str, Set[Tuple[str, int]]] = dict(scalar.boundaries)
        # Os-mode is a boundary in accounting rather than in calls: the
        # scalar path billing to `cycles.os.total` is the evidence.
        for token, sites in scalar.counters.items():
            if token == "cycles.os.total":
                observed.setdefault("os-mode", set()).update(sites)

        for category in sorted(observed):
            sites = observed[category]
            spec = CATEGORIES.get(category)
            if spec is None:
                path, line = sorted(sites)[0]
                findings.append(
                    self.site_finding(
                        path,
                        line,
                        "unclassified",
                        f"scalar replay path crosses dynamic boundary "
                        f"{category!r} that no fallback category covers",
                        "add the boundary to the fallback taxonomy and "
                        "guard it in the batch eligibility precheck",
                    )
                )
                continue
            if not set(spec.guard_attrs) & guard_attrs:
                findings.append(
                    self.site_finding(
                        batch_file.rel,
                        kernel_line,
                        "unguarded",
                        f"batch module has no scalar-fallback guard for "
                        f"category {category!r} (expected one of "
                        f"{'/'.join(spec.guard_attrs)} in a condition)",
                        "re-add the eligibility guard so these ops fall "
                        "back to the scalar path",
                    )
                )
            if taxonomy is not None and not re.search(
                spec.taxonomy, taxonomy, re.IGNORECASE
            ):
                findings.append(
                    self.site_finding(
                        batch_file.rel,
                        kernel_line,
                        "undocumented",
                        f"fallback category {category!r} has no row in "
                        f"the EXPERIMENTS.md scalar-fallback taxonomy "
                        f"(pattern /{spec.taxonomy}/ not found)",
                        "document the trigger in the taxonomy table",
                    )
                )
        if taxonomy is None:
            findings.append(
                self.site_finding(
                    batch_file.rel,
                    kernel_line,
                    "no-taxonomy",
                    "EXPERIMENTS.md scalar-fallback taxonomy section not "
                    "found; fallback categories cannot be cross-checked",
                    "restore the 'scalar-fallback taxonomy' section",
                )
            )
        return findings

    def _taxonomy_text(self, ctx: AnalysisContext) -> str:
        path = ctx.repo_root / "EXPERIMENTS.md"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        lowered = text.lower()
        start = lowered.find(_TAXONOMY_HEADING)
        if start < 0:
            return None
        # The section runs to the next same-or-higher-level heading.
        end = text.find("\n## ", start)
        return text[start : end if end > 0 else len(text)]
