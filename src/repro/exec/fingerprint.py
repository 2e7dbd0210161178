"""Code-version fingerprints for cache invalidation.

A cached cell result is only valid while the code that produced it is
unchanged.  Hashing the whole source tree would invalidate every cache
entry on any edit; instead each task carries a fingerprint of the
*transitive in-package import closure* of the module that defines its
callable: the module's own source plus, recursively, every sibling
module it imports from the same top-level package.  Editing
``repro.harness.plots`` therefore leaves ``repro.faults.explorer``
results cached, while editing ``repro.arch.machine`` (which everything
simulating a machine eventually imports) invalidates them all.

The closure is computed statically (``ast`` over the module sources, no
imports executed) and memoized per process.  Third-party and standard
library imports are ignored: the environment is pinned by the container
and tracking it would be noise.
"""

from __future__ import annotations

import ast
import hashlib
from importlib import util as importlib_util
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

#: module name -> (source bytes, is_package) — per-process memo.
_SOURCE_CACHE: Dict[str, Optional[Tuple[bytes, bool]]] = {}
#: (module name, root package) -> fingerprint hex digest.
_FINGERPRINT_CACHE: Dict[Tuple[str, str], str] = {}


def _load_source(name: str) -> Optional[Tuple[bytes, bool]]:
    """Source bytes of ``name`` and whether it is a package, if it is a
    plain ``.py`` module importable on the current path."""
    if name in _SOURCE_CACHE:
        return _SOURCE_CACHE[name]
    result: Optional[Tuple[bytes, bool]] = None
    try:
        spec = importlib_util.find_spec(name)
    except (ImportError, ValueError, ModuleNotFoundError):
        spec = None
    if spec is not None and spec.origin and spec.origin.endswith(".py"):
        try:
            source = Path(spec.origin).read_bytes()
        except OSError:
            source = None
        if source is not None:
            result = (source, bool(spec.submodule_search_locations))
    _SOURCE_CACHE[name] = result
    return result


def _relative_base(name: str, is_package: bool, level: int) -> Optional[str]:
    """The package a ``level``-dot relative import resolves against."""
    parts = name.split(".")
    # Inside a package __init__, one dot refers to the package itself.
    drop = level - 1 if is_package else level
    if drop >= len(parts):
        return None
    return ".".join(parts[: len(parts) - drop]) if drop else name


def _imported_candidates(
    name: str, source: bytes, is_package: bool, root: str
) -> Set[str]:
    """Module names ``name`` might import from the ``root`` package.

    ``from pkg import x`` is ambiguous between attribute and submodule;
    both forms are emitted and non-modules are discarded by the caller.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set()
    prefix = root + "."
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == root or alias.name.startswith(prefix):
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(name, is_package, node.level)
                if base is None:
                    continue
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module or ""
            if module != root and not module.startswith(prefix):
                continue
            found.add(module)
            for alias in node.names:
                found.add(f"{module}.{alias.name}")
    return found


def module_source(name: str) -> Optional[Tuple[bytes, bool]]:
    """Public face of the closure walker's source loader.

    Returns ``(source bytes, is_package)`` for a plain ``.py`` module
    importable on the current path, without importing it — shared with
    :mod:`repro.analysis`, whose ``task-safety`` checker resolves task
    targets against exactly the sources a fingerprint would cover.
    """
    return _load_source(name)


def clear_caches() -> None:
    """Forget memoized sources/fingerprints (tests, long-lived REPLs)."""
    _SOURCE_CACHE.clear()
    _FINGERPRINT_CACHE.clear()


def code_fingerprint(module: str, root: Optional[str] = None) -> str:
    """Hex digest of ``module``'s transitive in-package import closure.

    ``root`` bounds the closure to one top-level package and defaults to
    the first component of ``module``.  Unknown modules hash to a
    closure of whatever *does* resolve — a task naming a module that no
    longer exists simply fingerprints differently and misses the cache.
    """
    root = root or module.split(".", 1)[0]
    memo_key = (module, root)
    cached = _FINGERPRINT_CACHE.get(memo_key)
    if cached is not None:
        return cached
    closure: Dict[str, bytes] = {}
    queue = [module]
    seen: Set[str] = set()
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        loaded = _load_source(name)
        if loaded is None:
            continue
        source, is_package = loaded
        closure[name] = source
        for candidate in _imported_candidates(name, source, is_package, root):
            if candidate not in seen:
                queue.append(candidate)
    digest = hashlib.sha256()
    for name in sorted(closure):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(closure[name]).digest())
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[memo_key] = fingerprint
    return fingerprint


def closure_modules(module: str, root: Optional[str] = None) -> Iterable[str]:
    """The module names a fingerprint covers (introspection/debugging)."""
    root = root or module.split(".", 1)[0]
    code_fingerprint(module, root)  # populate the source memo
    closure: Set[str] = set()
    queue = [module]
    while queue:
        name = queue.pop()
        if name in closure:
            continue
        loaded = _load_source(name)
        if loaded is None:
            continue
        closure.add(name)
        source, is_package = loaded
        for candidate in _imported_candidates(name, source, is_package, root):
            if candidate not in closure:
                queue.append(candidate)
    return sorted(closure)
