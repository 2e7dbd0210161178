"""Mutation tests for the whole-program drift checkers.

Each test takes the real source tree, applies one surgical mutation of
the kind the checker exists to catch — deleting one of the miss-run
kernel's TLB/walk/op tallies, inventing a batch-only key, making the
interference monitor write foreign state, renaming the kernel's
persist-hook guard — and asserts the checker fails loudly.
The unmutated tree must pass every checker clean: that pair is the
static analog of the golden-equivalence runtime suite.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.analysis.core import AnalysisContext, SourceFile, build_context
from repro.analysis.registry import get_checker

REPO_ROOT = Path(__file__).resolve().parents[1]

WHOLE_PROGRAM_CHECKERS = (
    "counter-parity",
    "fallback-coverage",
    "observer-purity",
)


@pytest.fixture(scope="module")
def pristine_files():
    """The real src tree, parsed once per test module."""
    return build_context([REPO_ROOT / "src"], REPO_ROOT).files


def mutated_context(pristine_files, rel, transform):
    """A fresh context with one file's text rewritten by ``transform``."""
    files = []
    replaced = False
    for file in pristine_files:
        if file.rel == rel:
            text = transform(file.text)
            assert text != file.text, f"mutation did not change {rel}"
            files.append(
                SourceFile(
                    path=file.path,
                    rel=file.rel,
                    kind=file.kind,
                    module=file.module,
                    text=text,
                    tree=ast.parse(text),
                    pragmas=file.pragmas,
                )
            )
            replaced = True
        else:
            files.append(file)
    assert replaced, f"no scanned file named {rel}"
    return AnalysisContext(files, REPO_ROOT)


def run_checker(checker_id, ctx):
    checker = get_checker(checker_id)
    return [f for file in ctx.files for f in checker.run(file, ctx)]


class TestCleanTree:
    def test_real_tree_passes_all_drift_checkers(self, pristine_files):
        ctx = AnalysisContext(list(pristine_files), REPO_ROOT)
        for checker_id in WHOLE_PROGRAM_CHECKERS:
            findings = run_checker(checker_id, ctx)
            assert findings == [], (
                checker_id,
                [f.render() for f in findings],
            )


class TestCounterParityMutations:
    """The kernel shares the line path with scalar replay but tallies
    TLB, walk and op counts itself; dropping any tally fails."""

    @pytest.mark.parametrize(
        "key",
        [
            "tlb.hit",
            "tlb.miss",
            "tlb.evictions",
            "walk.completed",
            "ops.reads",
            "ops.writes",
        ],
    )
    def test_dropped_tally_fails(self, pristine_files, key):
        pattern = re.compile(
            rf'^(\s*)counters\["{re.escape(key)}"\] \+= .*$', re.MULTILINE
        )

        def drop_line(text):
            match = pattern.search(text, text.index("    def _miss_run("))
            assert match, f"no {key} tally in the kernel"
            return (
                text[: match.start()]
                + f"{match.group(1)}pass"
                + text[match.end() :]
            )

        ctx = mutated_context(
            pristine_files, "src/repro/replay/batch.py", drop_line
        )
        findings = run_checker("counter-parity", ctx)
        assert any(
            f.rule == "counter-parity.missing-aggregation"
            and repr(key) in f.message
            for f in findings
        ), [f.render() for f in findings]

    def test_batch_only_key_fails(self, pristine_files):
        def add_key(text):
            pattern = re.compile(
                r'^(\s*)(counters\["tlb\.miss"\] \+= .*)$',
                re.MULTILINE,
            )
            assert pattern.search(text)
            return pattern.sub(
                r'\1counters["batch.only_key"] += 1\n\1\2', text, count=1
            )

        ctx = mutated_context(
            pristine_files, "src/repro/replay/batch.py", add_key
        )
        findings = run_checker("counter-parity", ctx)
        assert any(
            f.rule == "counter-parity.batch-only"
            and "batch.only_key" in f.message
            for f in findings
        ), [f.render() for f in findings]


class TestObserverPurityMutations:
    def test_foreign_counter_fails(self, pristine_files):
        def inject(text):
            marker = "    def note_device(self"
            assert marker in text
            head, _, rest = text.partition(marker)
            # First statement line of the method body gets a foreign bump.
            lines = rest.split("\n")
            for index, line in enumerate(lines[1:], start=1):
                stripped = line.strip()
                if stripped and not stripped.startswith(('"""', "#")):
                    indent = line[: len(line) - len(line.lstrip())]
                    lines.insert(
                        index, f'{indent}self._counters["dram.reads"] += 1'
                    )
                    break
            return head + marker + "\n".join(lines)

        ctx = mutated_context(
            pristine_files, "src/repro/arch/interference.py", inject
        )
        findings = run_checker("observer-purity", ctx)
        assert any(
            f.rule == "observer-purity.foreign-counter"
            and "dram.reads" in f.message
            for f in findings
        ), [f.render() for f in findings]


class TestFallbackCoverageMutations:
    def test_removing_persist_guard_fails(self, pristine_files):
        def rename_guard(text):
            return text.replace("persist_hook", "persist_hoox")

        ctx = mutated_context(
            pristine_files, "src/repro/replay/batch.py", rename_guard
        )
        findings = run_checker("fallback-coverage", ctx)
        assert any(
            f.rule == "fallback-coverage.unguarded"
            and "persist_hook" in f.message
            for f in findings
        ), [f.render() for f in findings]

    def test_missing_taxonomy_doc_fails(self, pristine_files, tmp_path):
        # Same scanned files, but a repo root with no EXPERIMENTS.md.
        ctx = AnalysisContext(list(pristine_files), tmp_path)
        findings = run_checker("fallback-coverage", ctx)
        assert any(
            f.rule == "fallback-coverage.no-taxonomy" for f in findings
        ), [f.render() for f in findings]


class TestActivationGate:
    def test_partial_scan_stays_silent(self, pristine_files):
        """Linting a subset that lacks the batch module must not fire
        half-blind parity verdicts."""
        subset = [f for f in pristine_files if f.module != "repro.replay.batch"]
        ctx = AnalysisContext(subset, REPO_ROOT)
        for checker_id in ("counter-parity", "fallback-coverage"):
            assert run_checker(checker_id, ctx) == []
