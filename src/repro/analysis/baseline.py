"""Baseline suppression files.

A baseline records findings that are acknowledged but not yet fixed
(or justified without an inline pragma), so CI can gate on *new*
findings only.  Entries match on ``(checker, path, message)`` — not
line numbers, which shift under unrelated edits — and matching is a
multiset: two identical findings need two entries, so a baseline can
never hide a newly introduced duplicate of an acknowledged violation.

Stale entries (nothing in the tree matches them anymore) are reported
so baselines shrink over time instead of fossilizing.  Only an entry
whose file was scanned and whose checker ran can be stale: a partial
run (``--changed``, a path subset, ``--checkers``) says nothing about
the rest of the baseline.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.core import Finding

FORMAT = "repro-analysis-baseline/v1"


class BaselineError(Exception):
    """The baseline file is unreadable or malformed."""


def save(findings: List[Finding], path: Path) -> None:
    """Write ``findings`` as a baseline file (sorted, stable)."""
    entries = sorted(
        (
            {"checker": f.checker, "path": f.path, "message": f.message}
            for f in findings
        ),
        key=lambda e: (e["path"], e["checker"], e["message"]),
    )
    payload = {"format": FORMAT, "entries": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load(path: Path) -> List[Dict[str, str]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise BaselineError(
            f"baseline {path} is not a {FORMAT} document"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise BaselineError(f"baseline {path} has no entry list")
    for entry in entries:
        if not isinstance(entry, dict) or not {
            "checker",
            "path",
            "message",
        } <= set(entry):
            raise BaselineError(f"malformed baseline entry: {entry!r}")
    return entries


def apply(
    findings: List[Finding],
    entries: List[Dict[str, str]],
    scanned: Set[str],
    checkers: Set[str],
) -> Tuple[List[Finding], int, List[Dict[str, str]]]:
    """Split findings into (new, suppressed count, stale entries).

    ``scanned`` holds the repo-relative paths of the files this run
    analyzed and ``checkers`` the ids of the checkers it ran; entries
    outside either are left alone rather than reported stale.
    """
    budget = Counter(
        (e["checker"], e["path"], e["message"]) for e in entries
    )
    fresh: List[Finding] = []
    suppressed = 0
    for finding in findings:
        key = finding.identity()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    stale = [
        {"checker": c, "path": p, "message": m}
        for (c, p, m), count in sorted(budget.items())
        if p in scanned and c in checkers
        for _ in range(count)
    ]
    return fresh, suppressed, stale
