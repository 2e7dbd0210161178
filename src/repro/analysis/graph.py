"""Cross-module call graph and transitive effect summaries.

:class:`ProjectGraph` stitches the per-module
:class:`~repro.analysis.effects.ModuleSummary` digests into a
whole-program view: receiver chains are typed through constructor
assignments, parameter annotations and local aliases; attribute calls
resolve to concrete methods (including callback bindings like
``self.tlb.on_evict = self._tlb_evict_hook``); and a fixed-point
worklist propagates effect summaries through helpers so a checker can
ask "which stat counters does the scalar replay path bump,
transitively?" and compare the answer against the batched kernels.

Resolution is deliberately tiered, strongest evidence first:

1. ``self`` receivers resolve within the caller's class (walking base
   classes);
2. typed chains (``self.machine.timers`` → ``TimerWheel``) through
   constructor/annotation facts, following local aliases
   (``machine = self.machine``) and loop elements
   (``for ext in self.extensions`` with a ``List[...]`` annotation);
3. callback bindings collected from src modules, and bound methods
   hoisted into locals (``f = self.obj.method``; ``f(...)``);
4. *modeled boundaries*: attributes that hold injected OS behavior
   (``walker``, ``fault_handler``, ``persist_hook``, timer
   ``callback``) and calls on :class:`HardwareExtension`-typed
   receivers are recorded as named dynamic boundaries, not edges — the
   fallback-coverage checker reasons about exactly these;
5. a last-resort *may-edge* tier by unique method name over scanned
   classes, which never matches builtin-container method names.

Unresolvable calls degrade to anonymous dynamics; checkers treat them
as opaque rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import AnalysisContext, SourceFile, load_source_file
from repro.analysis.effects import (
    CONTAINER_MUTATORS,
    CONTAINER_READERS,
    ClassFacts,
    FunctionEffects,
    ModuleSummary,
    summarize,
)
from repro.exec.fingerprint import module_source

#: Attribute names that hold injected OS-model callables.  A call
#: through one of these is a *modeled boundary* — scalar-only behavior
#: the batch kernel must either reproduce or guard against.
BOUNDARY_ATTRS: Dict[str, str] = {
    "walker": "walker",
    "fault_handler": "fault_handler",
    "persist_hook": "persist_hook",
    "callback": "timer_callback",
}

#: Base classes whose virtual hook methods form the hardware-extension
#: bus; calls dispatched on them are the ``extensions`` boundary.
BOUNDARY_CLASSES = frozenset({"HardwareExtension"})

#: Method names the may-edge tier refuses to match (builtin-container
#: collisions) plus anything dunder.
_NO_NAME_MATCH = CONTAINER_MUTATORS | CONTAINER_READERS

_MAX_NAME_CANDIDATES = 4
_CHASE_DEPTH = 8


@dataclass(frozen=True)
class Edge:
    """One outgoing call record of a function."""

    kind: str  #: ``call`` | ``boundary`` | ``dynamic``
    target: str  #: function id, boundary category, or method name
    line: int


@dataclass
class TransitiveEffects:
    """Effects of a function including everything it (may-)calls."""

    #: counter token -> bump sites ``(module rel path, line)``.
    counters: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)
    #: static key *prefixes* (e.g. ``interference.``) -> sites.
    prefix_counters: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)
    #: bump sites whose key could not be resolved at all.
    dynamic_counters: Set[Tuple[str, int]] = field(default_factory=set)
    #: boundary category -> call sites.
    boundaries: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)

    def merge(self, other: "TransitiveEffects") -> bool:
        grew = False
        for mine, theirs in (
            (self.counters, other.counters),
            (self.prefix_counters, other.prefix_counters),
            (self.boundaries, other.boundaries),
        ):
            for key, sites in theirs.items():
                bucket = mine.setdefault(key, set())
                if not sites <= bucket:
                    bucket.update(sites)
                    grew = True
        if not other.dynamic_counters <= self.dynamic_counters:
            self.dynamic_counters.update(other.dynamic_counters)
            grew = True
        return grew


class ProjectGraph:
    """Whole-program resolution over a set of module summaries."""

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.summaries: Dict[str, ModuleSummary] = {}
        self._load_failed: Set[str] = set()
        cache = getattr(ctx, "_summary_cache", None)
        for file in ctx.files:
            if file.module:
                self.summaries[file.module] = (
                    cache.summary_for(file) if cache is not None else summarize(file)
                )
        self._index()
        self._edges: Dict[str, List[Edge]] = {}
        self._transitive: Dict[str, TransitiveEffects] = {}
        self._propagated = False

    # -- indexing ------------------------------------------------------

    def _index(self) -> None:
        self.class_index: Dict[str, List[Tuple[str, str]]] = {}
        self.method_index: Dict[str, List[str]] = {}
        self.bindings: Dict[str, List[str]] = {}
        for module, summary in self.summaries.items():
            for cls in summary.classes.values():
                self.class_index.setdefault(cls.name, []).append((module, cls.name))
                if summary.kind != "src":
                    continue
                for method in cls.methods:
                    if method.startswith("__") or method in _NO_NAME_MATCH:
                        continue
                    self.method_index.setdefault(method, []).append(
                        f"{module}:{cls.name}.{method}"
                    )
            for attr, targets in summary.bindings.items():
                bucket = self.bindings.setdefault(attr, [])
                for target in targets:
                    if target not in bucket:
                        bucket.append(target)

    def _ensure_module(self, name: str) -> Optional[ModuleSummary]:
        """Summary for ``name``, loading through the fingerprint walker's
        source loader when the module is outside the scanned set."""
        if name in self.summaries:
            return self.summaries[name]
        if name in self._load_failed:
            return None
        loaded = module_source(name)
        summary: Optional[ModuleSummary] = None
        if loaded is not None:
            try:
                tree = ast.parse(loaded[0])
            except SyntaxError:
                tree = None
            if tree is not None:
                file = SourceFile(
                    path=self.ctx.repo_root,
                    rel=f"<module:{name}>",
                    kind="src",
                    module=name,
                    text="",
                    tree=tree,
                )
                summary = summarize(file)
        if summary is None:
            self._load_failed.add(name)
            return None
        self.summaries[name] = summary
        # Index the new module so later lookups see it (method index
        # stays src-scanned-only on purpose: may-edges should not grow
        # as resolution pulls in more modules).
        for cls in summary.classes.values():
            self.class_index.setdefault(cls.name, []).append((name, cls.name))
        return summary

    # -- class/method resolution ---------------------------------------

    def resolve_class(
        self, name: str, module: str, depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        """``(module, class)`` for a constructor/annotation name as
        written inside ``module``; follows imports and re-exports."""
        if depth > 3 or not name:
            return None
        short = name.split(".")[-1]
        summary = self.summaries.get(module)
        if summary is not None:
            if short in summary.classes and "." not in name:
                return (module, short)
            target = summary.imports.get(name.split(".")[0])
            if target is not None:
                if "." in name:
                    dotted = f"{target}.{'.'.join(name.split('.')[1:])}"
                else:
                    dotted = target
                owner, _, cls_name = dotted.rpartition(".")
                owner_summary = self._ensure_module(owner)
                if owner_summary is not None:
                    if cls_name in owner_summary.classes:
                        return (owner, cls_name)
                    # Re-export: follow one more import hop.
                    return self.resolve_class(cls_name, owner, depth + 1)
        candidates = [
            (mod, cls)
            for mod, cls in self.class_index.get(short, [])
            if self.summaries[mod].kind == "src"
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def class_facts(self, ref: Tuple[str, str]) -> Optional[ClassFacts]:
        summary = self.summaries.get(ref[0])
        return summary.classes.get(ref[1]) if summary else None

    def is_boundary_class(self, ref: Tuple[str, str], depth: int = 0) -> bool:
        if ref[1] in BOUNDARY_CLASSES:
            return True
        if depth > 3:
            return False
        facts = self.class_facts(ref)
        for base in facts.bases if facts else ():
            base_ref = self.resolve_class(base, ref[0])
            if base_ref and self.is_boundary_class(base_ref, depth + 1):
                return True
        return False

    def resolve_method(
        self, ref: Tuple[str, str], name: str, depth: int = 0
    ) -> Optional[str]:
        """Function id of ``name`` on class ``ref``, walking bases."""
        if depth > 4:
            return None
        facts = self.class_facts(ref)
        if facts is None:
            return None
        if name in facts.methods:
            return f"{ref[0]}:{ref[1]}.{name}"
        for base in facts.bases:
            base_ref = self.resolve_class(base, ref[0])
            if base_ref:
                found = self.resolve_method(base_ref, name, depth + 1)
                if found:
                    return found
        return None

    def find_function(self, qualname: str) -> Optional[str]:
        """Function id for a ``Class.method``/``func`` qualname, searching
        src modules (scanned set first)."""
        hits = [
            f"{module}:{qualname}"
            for module, summary in self.summaries.items()
            if summary.kind == "src" and qualname in summary.functions
        ]
        scanned = [fid for fid in hits if fid.split(":", 1)[0] in self.ctx.by_module]
        pool = scanned or hits
        return pool[0] if len(pool) == 1 else (pool[0] if pool else None)

    def function(self, fid: str) -> Optional[FunctionEffects]:
        module, _, qual = fid.partition(":")
        summary = self.summaries.get(module)
        return summary.functions.get(qual) if summary else None

    def module_rel(self, module: str) -> str:
        summary = self.summaries.get(module)
        return summary.rel if summary else module

    # -- receiver typing -----------------------------------------------

    def _type_of_chain(
        self, module: str, fn: FunctionEffects, chain: Sequence[str], depth: int = 0
    ) -> Optional[object]:
        """Type of a receiver chain: ``("class", ref)``, ``("boundary",
        category)`` or None."""
        if depth > _CHASE_DEPTH or not chain:
            return None
        root, rest = chain[0], list(chain[1:])
        current: Optional[Tuple[str, str]] = None
        if root == "self":
            current = (module, fn.cls) if fn.cls else None
            if current and self.class_facts(current) is None:
                current = None
        elif root.startswith("@"):
            name = root[1:]
            ctor = fn.local_types.get(name)
            if ctor:
                resolved = self.resolve_class(ctor, module)
                if resolved is None:
                    return None
                if ctor.startswith(("List[", "list[")):
                    return None
                current = resolved
            elif name in fn.params:
                return self._type_of_annotation(module, fn, fn.params[name], rest, depth)
            else:
                source = fn.local_sources.get(name)
                if source is None:
                    return None
                if source[0] == "!call":
                    return None
                if source[0] == "!iter":
                    iter_type = self._type_of_chain(module, fn, source[1:], depth + 1)
                    if (
                        isinstance(iter_type, tuple)
                        and iter_type[0] == "element"
                    ):
                        current = iter_type[1]
                    else:
                        return None
                else:
                    return self._type_of_chain(
                        module, fn, list(source) + rest, depth + 1
                    )
        else:
            return None
        return self._walk_attrs(module, current, rest, depth)

    def _type_of_annotation(
        self,
        module: str,
        fn: FunctionEffects,
        annotation: str,
        rest: List[str],
        depth: int,
    ) -> Optional[object]:
        if annotation.startswith("list:"):
            return None  # a list itself has no model attributes
        ref = self.resolve_class(annotation, module)
        if ref is None:
            return None
        return self._walk_attrs(module, ref, rest, depth)

    def _walk_attrs(
        self,
        module: str,
        current: Optional[Tuple[str, str]],
        rest: List[str],
        depth: int,
    ) -> Optional[object]:
        for index, attr in enumerate(rest):
            if current is None:
                return None
            facts = self.class_facts(current)
            if facts is None:
                return None
            annotation = (
                facts.attr_types.get(attr)
                or facts.attr_params.get(attr)
                or facts.attr_annotations.get(attr)
            )
            if annotation is None:
                if attr in BOUNDARY_ATTRS and index == len(rest) - 1:
                    return ("boundary", BOUNDARY_ATTRS[attr])
                return None
            if annotation.startswith("list:"):
                element = self.resolve_class(annotation[5:], current[0])
                if index == len(rest) - 1 and element is not None:
                    return ("element", element)
                return None
            current = self.resolve_class(annotation, current[0])
        if current is None:
            return None
        return ("class", current)

    # -- call resolution -----------------------------------------------

    def edges(self, fid: str) -> List[Edge]:
        if fid in self._edges:
            return self._edges[fid]
        module, _, _ = fid.partition(":")
        fn = self.function(fid)
        out: List[Edge] = []
        if fn is not None:
            for receiver, method, line in fn.calls:
                out.extend(self._resolve_call(module, fn, receiver, method, line))
        self._edges[fid] = out
        return out

    def _resolve_call(
        self,
        module: str,
        fn: FunctionEffects,
        receiver: Sequence[str],
        method: str,
        line: int,
    ) -> List[Edge]:
        if method == "__call__":
            return self._resolve_plain_call(module, fn, receiver, line)
        typed = self._type_of_chain(module, fn, receiver)
        if isinstance(typed, tuple) and typed[0] == "boundary":
            # The chain itself ends on a boundary attr; calling any
            # method on it stays inside the boundary.
            return [Edge("boundary", typed[1], line)]
        if isinstance(typed, tuple) and typed[0] in ("class", "element"):
            ref = typed[1]
            if self.is_boundary_class(ref):
                return [Edge("boundary", "extensions", line)]
            target = self.resolve_method(ref, method)
            if target is not None:
                return [Edge("call", target, line)]
            if method in BOUNDARY_ATTRS:
                # A boundary slot stays a boundary even when some
                # component binds a concrete callable into it — the
                # kernel's contract is the guard, not the callee.
                return [Edge("boundary", BOUNDARY_ATTRS[method], line)]
            bound_targets = [
                resolved
                for bound in self.bindings.get(method, ())
                for resolved in [self._resolve_bound(bound)]
                if resolved
            ]
            if bound_targets:  # callback slot wired up elsewhere
                return [Edge("call", t, line) for t in bound_targets]
            return [Edge("dynamic", method, line)]
        # Untyped receiver: boundary attr name, then unique-name tier.
        if method in BOUNDARY_ATTRS:
            return [Edge("boundary", BOUNDARY_ATTRS[method], line)]
        if receiver and receiver[-1] in BOUNDARY_ATTRS:
            return [Edge("boundary", BOUNDARY_ATTRS[receiver[-1]], line)]
        if method in self.bindings:
            targets = [
                r
                for b in self.bindings[method]
                for r in [self._resolve_bound(b)]
                if r
            ]
            if targets:
                return [Edge("call", t, line) for t in targets]
        if not method.startswith("__") and method not in _NO_NAME_MATCH:
            candidates = []
            for candidate in self.method_index.get(method, []):
                mod, _, qual = candidate.partition(":")
                if not self.is_boundary_class((mod, qual.split(".")[0])):
                    candidates.append(candidate)
            if 1 <= len(candidates) <= _MAX_NAME_CANDIDATES:
                return [Edge("call", fid, line) for fid in candidates]
        return [Edge("dynamic", method, line)]

    def _resolve_bound(self, bound: str) -> Optional[str]:
        """``Class.method`` binding target -> function id."""
        cls_name, _, method = bound.partition(".")
        candidates = [
            (mod, cls)
            for mod, cls in self.class_index.get(cls_name, [])
            if self.summaries[mod].kind == "src"
        ]
        for ref in candidates:
            fid = self.resolve_method(ref, method)
            if fid:
                return fid
        return None

    def _resolve_plain_call(
        self,
        module: str,
        fn: FunctionEffects,
        receiver: Sequence[str],
        line: int,
    ) -> List[Edge]:
        if len(receiver) != 1 or not receiver[0].startswith("@"):
            return []
        name = receiver[0][1:]
        source = fn.local_sources.get(name)
        if source and len(source) > 1 and source[0] not in ("!call", "!iter"):
            # A bound method hoisted into a local
            # (``line_access = machine.phys_line_access``) resolves like
            # the attribute call it stands for.
            return self._resolve_call(module, fn, source[:-1], source[-1], line)
        summary = self.summaries.get(module)
        if summary is None:
            return []
        if name in summary.functions:
            return [Edge("call", f"{module}:{name}", line)]
        target = summary.imports.get(name)
        if target:
            owner, _, func = target.rpartition(".")
            owner_summary = self._ensure_module(owner)
            if owner_summary and func in owner_summary.functions:
                return [Edge("call", f"{owner}:{func}", line)]
        return []

    # -- counter-token resolution --------------------------------------

    def _resolve_key_attr(
        self,
        module: str,
        fn: FunctionEffects,
        receiver: Sequence[str],
        attr: str,
        depth: int = 0,
    ) -> Optional[str]:
        """Normalize a precomputed ``*_key`` attribute read into a token:
        a literal key, or ``Class:*<suffix>`` for f-string keys."""
        if depth > _CHASE_DEPTH:
            return None
        typed = self._type_of_chain(module, fn, receiver)
        ref = typed[1] if isinstance(typed, tuple) and typed[0] == "class" else None
        if ref is not None:
            return self._key_from_class(ref, attr, depth)
        # Untyped receiver: unique defining class across src summaries.
        owners = [
            (mod, cls.name)
            for mod, summary in self.summaries.items()
            if summary.kind == "src"
            for cls in summary.classes.values()
            if attr in cls.key_attrs
        ]
        tokens = {
            token
            for owner in owners
            for token in [self._key_from_class(owner, attr, depth)]
            if token
        }
        if len(tokens) == 1:
            return tokens.pop()
        return None

    def _key_from_class(
        self, ref: Tuple[str, str], attr: str, depth: int
    ) -> Optional[str]:
        facts = self.class_facts(ref)
        if facts is None:
            return None
        spec = facts.key_attrs.get(attr)
        if spec is None:
            for base in facts.bases:
                base_ref = self.resolve_class(base, ref[0])
                if base_ref:
                    token = self._key_from_class(base_ref, attr, depth + 1)
                    if token:
                        return token
            return None
        if spec[0] == "const":
            return spec[1]
        if spec[0] == "suffix":
            return f"{ref[1]}:*{spec[1]}"
        if spec[0] == "copy":
            chain = spec[1]
            init = self.summaries[ref[0]].functions.get(f"{ref[1]}.__init__")
            scope = init or FunctionEffects(qualname="", line=0, cls=ref[1])
            return self._resolve_key_attr(
                ref[0], scope, chain[:-1], chain[-1], depth + 1
            )
        return None

    def local_effects(self, fid: str) -> TransitiveEffects:
        """This function's own effects with counter keys normalized."""
        module, _, _ = fid.partition(":")
        fn = self.function(fid)
        rel = self.module_rel(module)
        effects = TransitiveEffects()
        if fn is None:
            return effects
        for spec, line in fn.counters:
            site = (rel, line)
            token = self._token_for_spec(module, fn, spec)
            if token is None:
                effects.dynamic_counters.add(site)
            elif isinstance(token, tuple):  # ("prefix", p)
                effects.prefix_counters.setdefault(token[1], set()).add(site)
            else:
                effects.counters.setdefault(token, set()).add(site)
        for edge in self.edges(fid):
            if edge.kind == "boundary":
                effects.boundaries.setdefault(edge.target, set()).add((rel, edge.line))
        return effects

    def _token_for_spec(
        self, module: str, fn: FunctionEffects, spec: Sequence
    ) -> Optional[object]:
        if spec[0] == "const":
            return spec[1]
        if spec[0] == "attr":
            return self._resolve_key_attr(module, fn, spec[1], spec[2])
        if spec[0] == "local":
            source = fn.local_sources.get(spec[1])
            if source is None:
                return None
            if source[0] == "!call" and fn.cls:
                facts = self.class_facts((module, fn.cls))
                prefix = facts.return_prefixes.get(source[1]) if facts else None
                return ("prefix", prefix) if prefix else None
            if source[0] not in ("!call", "!iter") and len(source) >= 2:
                return self._resolve_key_attr(module, fn, source[:-1], source[-1])
            return None
        return None

    # -- propagation -----------------------------------------------------

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Function ids reachable from ``roots`` via resolved edges."""
        seen: Set[str] = set()
        queue = [fid for fid in roots if self.function(fid) is not None]
        while queue:
            fid = queue.pop()
            if fid in seen:
                continue
            seen.add(fid)
            for edge in self.edges(fid):
                if edge.kind == "call" and edge.target not in seen:
                    queue.append(edge.target)
        return seen

    def transitive(self, roots: Sequence[str]) -> TransitiveEffects:
        """Union of local effects over everything reachable from roots.

        Computed by a fixed-point worklist over the call graph so
        summaries flow through helper chains and survive cycles."""
        total = TransitiveEffects()
        for fid in roots:
            total.merge(self._transitive_one(fid))
        return total

    def _transitive_one(self, root: str) -> TransitiveEffects:
        if root in self._transitive:
            return self._transitive[root]
        members = self.reachable([root])
        state: Dict[str, TransitiveEffects] = {
            fid: self.local_effects(fid) for fid in members
        }
        callers: Dict[str, Set[str]] = {fid: set() for fid in members}
        for fid in members:
            for edge in self.edges(fid):
                if edge.kind == "call" and edge.target in callers:
                    callers[edge.target].add(fid)
        pending = set(members)
        while pending:
            fid = pending.pop()
            for edge in self.edges(fid):
                if edge.kind == "call" and edge.target in state:
                    if state[fid].merge(state[edge.target]):
                        pending.update(callers.get(fid, ()))
        result = state.get(root, TransitiveEffects())
        self._transitive[root] = result
        return result


def project_graph(ctx: AnalysisContext) -> ProjectGraph:
    """The memoized :class:`ProjectGraph` for an analysis context (all
    whole-program checkers share one graph per run)."""
    graph = getattr(ctx, "_project_graph", None)
    if graph is None:
        graph = ProjectGraph(ctx)
        ctx._project_graph = graph  # type: ignore[attr-defined]
    return graph
