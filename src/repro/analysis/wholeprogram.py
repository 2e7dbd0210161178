"""Base machinery for whole-program (graph-backed) checkers.

Per-file checkers re-derive everything from the one file they are
handed; the three drift checkers instead analyze the entire scanned
tree once — through :func:`repro.analysis.graph.project_graph` — and
then hand each file its slice of the findings.  This base class owns
that once-per-context memoization, the activation gate (a
whole-program checker only fires when the modules it reasons about are
actually in the scanned set, so linting a stray file never produces
half-blind verdicts), and finding construction without an AST node
(graph findings anchor on ``(path, line)`` pairs from effect sites).

Pragmas still work: a ``# repro: allow-<name>(reason)`` trailing the
anchored line, or standalone on the line above, suppresses the finding
exactly like any per-file checker.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.analysis.core import AnalysisContext, Finding, SourceFile
from repro.analysis.registry import Checker

#: The scalar reference implementation: per-op replay entry point.
SCALAR_ROOTS: Tuple[str, ...] = ("Machine.access",)

#: The batched kernels whose commits must mirror the scalar path.
BATCH_ROOTS: Tuple[str, ...] = (
    "BatchReplayer._miss_run",
    "BatchReplayer._commit",
)

#: The general kernel: runs eligible ops through the machine's line
#: path and must be able to produce *every* scalar stat key.  (`_commit`
#: only covers the all-fast-hit special case, so aggregation
#: completeness is judged against this root alone.)
BATCH_KERNEL_ROOT = "BatchReplayer._miss_run"

#: Modules the parity story is about; checkers gate on these being in
#: the scanned set.
SCALAR_MODULE = "repro.arch.machine"
BATCH_MODULE = "repro.replay.batch"


class WholeProgramChecker(Checker):
    """One whole-tree analysis, findings dealt out per file."""

    kinds = ("src",)
    #: modules that must be in the scanned set for the checker to run.
    required_modules: Tuple[str, ...] = (SCALAR_MODULE, BATCH_MODULE)

    def analyze(self, ctx: AnalysisContext) -> List[Finding]:
        raise NotImplementedError

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        for finding in self._findings(ctx):
            if finding.path == file.rel:
                yield finding

    def _findings(self, ctx: AnalysisContext) -> List[Finding]:
        store = getattr(ctx, "_wholeprogram_findings", None)
        if store is None:
            store = {}
            ctx._wholeprogram_findings = store  # type: ignore[attr-defined]
        if self.id not in store:
            if all(m in ctx.by_module for m in self.required_modules):
                found = self.analyze(ctx)
                found.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
                store[self.id] = found
            else:
                store[self.id] = []
        return store[self.id]

    def site_finding(
        self, path: str, line: int, rule: str, message: str, hint: str
    ) -> Finding:
        """A finding anchored on an effect site rather than an AST node."""
        return Finding(
            checker=self.id,
            rule=f"{self.id}.{rule}",
            path=path,
            line=line,
            col=0,
            message=message,
            hint=(
                f"{hint}; or annotate "
                f"'# repro: allow-{self.pragma}(<reason>)'"
            ),
            end_line=line,
        )


def resolve_roots(graph, qualnames: Tuple[str, ...]) -> List[str]:
    """Function ids for the configured root qualnames (missing roots
    are skipped — the activation gate already vouched for the modules)."""
    fids = []
    for qualname in qualnames:
        fid = graph.find_function(qualname)
        if fid is not None:
            fids.append(fid)
    return fids
