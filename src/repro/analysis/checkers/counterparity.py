"""counter-parity: scalar and batched replay must bump the same keys.

The batched kernels (`BatchReplayer._miss_run` / `._commit`) promise
byte-identical stats to the scalar `Machine.access` path.  The miss-run
kernel shares the cache/memory line path (`Machine.phys_line_access`)
with scalar replay but tallies TLB, walk and op counts itself.  This
checker proves the *key-set* half of the promise statically: every
stat counter the scalar path can bump, transitively through helpers
(`Tlb.lookup`, the line path, `MemoryChannel.read_latency`, the
TLB-evict callback chain, interference hooks...), must be reachable
from the miss-run kernel — and the kernels must not invent batch-only
keys.

Keys are compared as normalized tokens: literal keys verbatim
(``"tlb.hit"``), precomputed per-instance key attributes by their
defining class and static suffix (``Cache:*.hit`` covers ``l1.hit``,
``l2.hit``, ``llc.hit`` at once), and methods returning namespaced keys
by their static prefix (``interference.``).  Keys that cannot be
resolved statically are ignored on both sides rather than guessed.

Known, *deliberate* asymmetries are excluded by name and tied to their
scalar-fallback category — the fallback-coverage checker independently
verifies those categories stay guarded in the kernel.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.core import AnalysisContext, Finding
from repro.analysis.graph import project_graph
from repro.analysis.registry import register
from repro.analysis.wholeprogram import (
    BATCH_KERNEL_ROOT,
    BATCH_MODULE,
    BATCH_ROOTS,
    SCALAR_ROOTS,
    WholeProgramChecker,
    resolve_roots,
)

#: Scalar-only keys that are *supposed* to be scalar-only, mapped to
#: the fallback-taxonomy category that makes the asymmetry safe: the
#: kernel refuses the whole run before the key could matter.
SCALAR_ONLY_EXCLUSIONS: Dict[str, str] = {
    # A walk aborts only on an unmapped translation; the kernel reads
    # the walk record first and breaks to scalar before charging it.
    "walk.aborted": "fault_handler",
}


@register
class CounterParityChecker(WholeProgramChecker):
    id = "counter-parity"
    pragma = "counter-parity"
    description = (
        "every stat key the scalar replay path bumps is reachable from "
        "the batch miss-run kernel, and vice versa"
    )

    def analyze(self, ctx: AnalysisContext) -> List[Finding]:
        graph = project_graph(ctx)
        scalar = graph.transitive(resolve_roots(graph, SCALAR_ROOTS))
        # Completeness is judged against the general miss-run kernel:
        # it must be able to aggregate every scalar key.  The inverse
        # direction considers every kernel (no root may invent keys).
        kernel = graph.transitive(resolve_roots(graph, (BATCH_KERNEL_ROOT,)))
        batch = graph.transitive(resolve_roots(graph, BATCH_ROOTS))
        batch_rel = graph.module_rel(BATCH_MODULE)
        kernel_fid = graph.find_function(BATCH_KERNEL_ROOT)
        kernel_fn = graph.function(kernel_fid) if kernel_fid else None
        kernel_line = kernel_fn.line if kernel_fn else 1

        findings: List[Finding] = []
        scalar_tokens = {
            **{t: s for t, s in scalar.counters.items()},
            **{f"prefix:{p}": s for p, s in scalar.prefix_counters.items()},
        }
        kernel_tokens = {
            **{t: s for t, s in kernel.counters.items()},
            **{f"prefix:{p}": s for p, s in kernel.prefix_counters.items()},
        }
        batch_tokens = {
            **{t: s for t, s in batch.counters.items()},
            **{f"prefix:{p}": s for p, s in batch.prefix_counters.items()},
        }
        for token in sorted(set(scalar_tokens) - set(kernel_tokens)):
            if token in SCALAR_ONLY_EXCLUSIONS:
                continue
            where = sorted({path for path, _ in scalar_tokens[token]})[0]
            findings.append(
                self.site_finding(
                    batch_rel,
                    kernel_line,
                    "missing-aggregation",
                    f"scalar replay path bumps stat key {token!r} "
                    f"(via {where}) but the miss-run kernel never "
                    f"produces it",
                    "tally the key in the kernel or make the "
                    "eligibility precheck fall back to scalar",
                )
            )
        for token in sorted(set(batch_tokens) - set(scalar_tokens)):
            path, line = sorted(batch_tokens[token])[0]
            findings.append(
                self.site_finding(
                    path,
                    line,
                    "batch-only",
                    f"batch kernel bumps stat key {token!r} that the "
                    f"scalar replay path never produces",
                    "mirror the key on the scalar path or drop it from "
                    "the kernel",
                )
            )
        return findings
