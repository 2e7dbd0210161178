"""``python -m repro.analysis`` — run the invariant checkers.

Usage::

    python -m repro.analysis [paths ...] [options]

Paths default to ``src tests``.  Exit status is 0 when no
non-baselined finding remains, 1 when findings are reported, 2 on
usage or environment errors — so CI gates on the exit code and humans
read the text.

Options:

``--format text|json|sarif``
    text renders one ``path:line:col: [rule] message (fix: hint)``
    line per finding; json emits findings plus a summary document;
    sarif emits a SARIF 2.1.0 log for CI code-review annotation.
``--baseline FILE``
    suppress findings recorded in a baseline file (stale entries are
    reported so the file shrinks over time; only entries for a scanned
    file and a checker that ran can be stale).
``--write-baseline FILE``
    write the current findings as a new baseline and exit 0.
``--changed``
    lint only files modified or added relative to ``git HEAD`` — the
    pre-commit fast path.
``--checkers a,b``
    run a subset of checkers.
``--list-checkers``
    print the registered checkers and their pragma names.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import baseline as baseline_mod
from repro.analysis import sarif as sarif_mod
from repro.analysis.core import (
    AnalysisContext,
    Finding,
    SourceError,
    build_context,
)
from repro.analysis.registry import Checker, all_checkers


def _repo_root(start: Path) -> Path:
    """Nearest ancestor holding a ``.git`` (or ``start`` itself)."""
    for candidate in [start, *start.parents]:
        if (candidate / ".git").exists():
            return candidate
    return start


def _changed_files(root: Path) -> List[Path]:
    """Files modified/added vs HEAD plus untracked files, via git.

    NUL-separated output (``-z``) so paths with spaces or characters
    git would quote survive; paths deleted vs HEAD (``git rm``, plain
    deletions) and non-``.py`` entries are skipped instead of being
    handed to the parser.
    """
    changed: List[Path] = []
    for args in (
        ["git", "diff", "--name-only", "-z", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
    ):
        proc = subprocess.run(
            args, cwd=root, capture_output=True, text=True, check=True
        )
        for entry in proc.stdout.split("\0"):
            if not entry:
                continue
            path = root / entry
            if path.suffix == ".py" and path.is_file():
                changed.append(path)
    return changed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static invariant analysis for the simulator tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="suppression file of acknowledged findings",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs git HEAD (fast pre-commit path)",
    )
    parser.add_argument(
        "--checkers",
        default=None,
        help="comma-separated checker ids to run (default: all)",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list registered checkers and exit",
    )
    return parser


def _select(checker_ids: Optional[List[str]]) -> List[Checker]:
    checkers = all_checkers()
    if checker_ids is None:
        return checkers
    known = {c.id for c in checkers}
    unknown = [i for i in checker_ids if i not in known]
    if unknown:
        raise SystemExit(
            f"unknown checker id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [c for c in checkers if c.id in checker_ids]


def _collect(ctx: AnalysisContext, checkers: List[Checker]) -> List[Finding]:
    findings: List[Finding] = []
    for file in ctx.files:
        for checker in checkers:
            findings.extend(checker.run(file, ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_checkers:
        for checker in all_checkers():
            scope = "+".join(checker.kinds)
            print(
                f"{checker.id:15s} pragma=allow-{checker.pragma:10s} "
                f"[{scope}] {checker.description}"
            )
        return 0

    root = _repo_root(Path.cwd())
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    if args.changed:
        try:
            changed = _changed_files(root)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: --changed needs a git checkout: {exc}", file=sys.stderr)
            return 2
        scope = [p.resolve() for p in paths]
        paths = [
            c
            for c in changed
            if any(
                c.resolve() == s or s in c.resolve().parents for s in scope
            )
        ]
        if not paths:
            print("analysis: no changed python files in scope")
            return 0

    try:
        ctx = build_context(paths, root)
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checker_ids = (
        [c.strip() for c in args.checkers.split(",") if c.strip()]
        if args.checkers
        else None
    )
    checkers = _select(checker_ids)
    findings = _collect(ctx, checkers)

    if args.write_baseline is not None:
        baseline_mod.save(findings, args.write_baseline)
        print(
            f"analysis: wrote baseline with {len(findings)} entr"
            f"{'y' if len(findings) == 1 else 'ies'} to {args.write_baseline}"
        )
        return 0

    suppressed = 0
    stale: List[dict] = []
    if args.baseline is not None:
        try:
            entries = baseline_mod.load(args.baseline)
        except baseline_mod.BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, suppressed, stale = baseline_mod.apply(
            findings,
            entries,
            scanned={f.rel for f in ctx.files},
            checkers={c.id for c in checkers},
        )

    if args.fmt == "sarif":
        document = sarif_mod.render(findings, all_checkers())
        print(json.dumps(document, indent=2, sort_keys=True))
    elif args.fmt == "json":
        document = {
            "files": len(ctx.files),
            "findings": [f.as_dict() for f in findings],
            "suppressed_by_baseline": suppressed,
            "stale_baseline_entries": stale,
            "exit_code": 1 if findings else 0,
        }
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        for entry in stale:
            print(
                f"stale baseline entry (fixed? remove it): "
                f"[{entry['checker']}] {entry['path']}: {entry['message']}"
            )
        summary = (
            f"analysis: {len(ctx.files)} files, {len(findings)} finding"
            f"{'' if len(findings) == 1 else 's'}"
        )
        if suppressed:
            summary += f", {suppressed} baselined"
        print(summary)
    return 1 if findings else 0
