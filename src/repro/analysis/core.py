"""AST walking core shared by every checker.

A checker sees one :class:`SourceFile` at a time — parsed tree, raw
lines, dotted module name and suppression pragmas — plus the
:class:`AnalysisContext` holding the whole scanned set, so cross-file
checks (does this task target resolve to a top-level function?) stay
static.  Module resolution outside the scanned set reuses the
import-closure walker's source loader from
:mod:`repro.exec.fingerprint`: the same machinery that decides what a
cached result's code fingerprint covers decides here what the linter
can see.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.exec.fingerprint import module_source

#: ``# repro: allow-<name>(<reason>)`` — suppresses findings of the
#: checker whose pragma name is ``<name>`` on the statement it ends.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow-([a-z-]+)\(([^()]*)\)")

_SKIP_DIRS = {"__pycache__", ".git", "artifacts", ".hypothesis"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    checker: str  #: checker id, e.g. ``"determinism"``
    rule: str  #: sub-rule id, e.g. ``"determinism.wallclock"``
    path: str  #: repo-relative posix path
    line: int
    col: int
    message: str
    hint: str
    #: Last physical line of the flagged statement (pragma scan range).
    end_line: int = 0

    def identity(self) -> Tuple[str, str, str]:
        """Baseline-matching key: stable across unrelated line shifts."""
        return (self.checker, self.path, self.message)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: [{self.rule}] "
            f"{self.message} (fix: {self.hint})"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class SourceFile:
    """One parsed python file under analysis."""

    path: Path
    rel: str
    kind: str  #: ``"src"`` or ``"test"``
    module: Optional[str]
    text: str
    tree: ast.Module
    #: line number -> pragma names allowed on that line.
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)


class SourceError(Exception):
    """A file under analysis could not be read or parsed."""


def _module_name(path: Path) -> Optional[str]:
    """Dotted module name from the longest ``__init__.py`` chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    package_parts: List[str] = []
    while (current / "__init__.py").is_file():
        package_parts.append(current.name)
        current = current.parent
    if not package_parts:
        return None
    return ".".join(list(reversed(package_parts)) + parts)


def _classify(rel: str) -> str:
    parts = rel.split("/")
    if "tests" in parts or parts[-1].startswith("test_"):
        return "test"
    return "src"


def load_source_file(path: Path, repo_root: Path) -> SourceFile:
    """Parse one file into a :class:`SourceFile` (pragmas included)."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceError(f"{path}: {exc}") from exc
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise SourceError(f"{path}: syntax error: {exc}") from exc
    try:
        rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in PRAGMA_RE.finditer(line):
            name, reason = match.group(1), match.group(2).strip()
            if reason:  # a pragma without a reason does not count
                pragmas.setdefault(lineno, set()).add(name)
    return SourceFile(
        path=path,
        rel=rel,
        kind=_classify(rel),
        module=_module_name(path.resolve()),
        text=text,
        tree=tree,
        pragmas=pragmas,
    )


def discover(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through directly)."""
    found: List[Path] = []
    for base in paths:
        if base.is_file():
            if base.suffix == ".py":
                found.append(base)
            continue
        for candidate in sorted(base.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            found.append(candidate)
    # De-duplicate while preserving order (overlapping path arguments).
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in found:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


class AnalysisContext:
    """The scanned file set plus cross-file module resolution."""

    def __init__(self, files: List[SourceFile], repo_root: Path) -> None:
        self.files = files
        self.repo_root = repo_root
        self.by_module: Dict[str, SourceFile] = {
            f.module: f for f in files if f.module
        }
        self._tree_cache: Dict[str, Optional[ast.Module]] = {}

    def module_tree(self, name: str) -> Optional[ast.Module]:
        """Parsed AST of module ``name``, scanned set first, then the
        fingerprint walker's loader (import path, nothing executed)."""
        if name in self._tree_cache:
            return self._tree_cache[name]
        tree: Optional[ast.Module] = None
        scanned = self.by_module.get(name)
        if scanned is not None:
            tree = scanned.tree
        else:
            loaded = module_source(name)
            if loaded is not None:
                try:
                    tree = ast.parse(loaded[0])
                except SyntaxError:
                    tree = None
        self._tree_cache[name] = tree
        return tree


def build_context(paths: Iterable[Path], repo_root: Path) -> AnalysisContext:
    files = [load_source_file(p, repo_root) for p in discover(paths)]
    return AnalysisContext(files, repo_root)


# ----------------------------------------------------------------------
# small AST helpers shared by checkers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_basename(node: ast.AST) -> Optional[str]:
    """Last identifier of a call receiver: ``self.machine.physmem`` -> ``physmem``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
