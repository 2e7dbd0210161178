"""Unit tests for the whole-program analysis layer.

Covers the per-module effect extraction (`repro.analysis.effects`),
cross-module resolution and fixed-point propagation
(`repro.analysis.graph`), the incremental summary cache
(`repro.analysis.cache`) and the SARIF emitter — on synthetic module
trees small enough to reason about exactly, plus a handful of
ground-truth facts about the real tree (the parity sets the drift
checkers gate on).
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cache import SummaryCache
from repro.analysis.core import AnalysisContext, build_context, load_source_file
from repro.analysis.effects import ModuleSummary, summarize
from repro.analysis.graph import ProjectGraph, project_graph
from repro.analysis.sarif import render
from repro.analysis.wholeprogram import BATCH_ROOTS, SCALAR_ROOTS, resolve_roots

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_context(tmp_path, sources):
    """Build an AnalysisContext from {relpath: code} synthetic modules."""
    for rel, code in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
    return build_context([tmp_path], tmp_path)


class TestEffects:
    def test_counter_specs_and_key_attrs(self, tmp_path):
        ctx = make_context(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/cache.py": """
                class Cache:
                    def __init__(self, name, stats):
                        self._hit_key = f"{name}.hit"
                        self._counters = stats.counters

                    def lookup(self, line):
                        self._counters[self._hit_key] += 1
                        self._counters["cache.total"] += 1
                """,
            },
        )
        summary = summarize(ctx.by_module["pkg.cache"])
        facts = summary.classes["Cache"]
        assert facts.key_attrs["_hit_key"] == ["suffix", ".hit"]
        lookup = summary.functions["Cache.lookup"]
        specs = [spec for spec, _line in lookup.counters]
        assert ["const", "cache.total"] in specs
        assert ["attr", ["self"], "_hit_key"] in specs

    def test_nested_defs_fold_into_enclosing_function(self, tmp_path):
        ctx = make_context(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/kernel.py": """
                class Kernel:
                    def run(self, counters):
                        def helper(victim):
                            counters["cache.writebacks"] += 1
                        helper(3)
                """,
            },
        )
        summary = summarize(ctx.by_module["pkg.kernel"])
        run = summary.functions["Kernel.run"]
        assert (["const", "cache.writebacks"], 5) in [
            (spec, line) for spec, line in run.counters
        ]
        assert "Kernel.run.helper" not in summary.functions

    def test_callback_bindings_collected(self, tmp_path):
        ctx = make_context(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                class Machine:
                    def __init__(self, tlb):
                        self.tlb = tlb
                        self.tlb.on_evict = self._evict_hook

                    def _evict_hook(self, entry):
                        pass
                """,
            },
        )
        summary = summarize(ctx.by_module["pkg.m"])
        assert summary.bindings == {"on_evict": ["Machine._evict_hook"]}

    def test_json_round_trip(self, tmp_path):
        ctx = make_context(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/x.py": """
                from collections import deque

                class Widget:
                    def __init__(self, stats):
                        self.stats = stats
                        self.queue = deque()
                        self._key = "w.spins"

                    def spin(self):
                        self.stats.add(self._key)
                        self.queue.append(1)
                """,
            },
        )
        summary = summarize(ctx.by_module["pkg.x"])
        clone = ModuleSummary.from_json(
            json.loads(json.dumps(summary.to_json()))
        )
        assert clone.to_json() == summary.to_json()
        assert clone.classes["Widget"].key_attrs["_key"] == ["const", "w.spins"]


GRAPH_SOURCES = {
    "pkg/__init__.py": "",
    "pkg/stats.py": """
    class Stats:
        def __init__(self):
            self.counters = {}

        def add(self, name, amount=1):
            self.counters[name] = self.counters.get(name, 0) + amount
    """,
    "pkg/cache.py": """
    class Cache:
        def __init__(self, name, stats):
            self._hit_key = f"{name}.hit"
            self._counters = stats.counters

        def lookup(self, line):
            self._counters[self._hit_key] += 1

        def commit_run(self, hits):
            if hits:
                self._counters[self._hit_key] += hits
    """,
    "pkg/machine.py": """
    from pkg.cache import Cache
    from pkg.stats import Stats

    class Machine:
        def __init__(self):
            self.stats = Stats()
            self.l1 = Cache("l1", self.stats)
            self.persist_hook = None
            self.clock = 0

        def access(self, addr):
            self.l1.lookup(addr)
            if self.persist_hook is not None:
                self.persist_hook(addr)
            self.advance(1)

        def advance(self, cycles):
            self.clock += cycles
            self.stats.counters["cycles.user"] += cycles
    """,
    "pkg/batch.py": """
    from pkg.machine import Machine

    class Replayer:
        def __init__(self, machine: Machine):
            self.machine = machine

        def kernel(self):
            machine = self.machine
            l1 = machine.l1
            l1.commit_run(5)
            machine.stats.counters["cycles.user"] += 5

        def hoisted(self):
            access = self.machine.access
            access(3)
    """,
}


class TestGraph:
    @pytest.fixture()
    def graph(self, tmp_path):
        ctx = make_context(tmp_path, GRAPH_SOURCES)
        return ProjectGraph(ctx)

    def test_typed_chain_resolution(self, graph):
        access = graph.find_function("Machine.access")
        targets = {
            e.target for e in graph.edges(access) if e.kind == "call"
        }
        assert "pkg.cache:Cache.lookup" in targets
        assert "pkg.machine:Machine.advance" in targets

    def test_boundary_attr_stays_boundary(self, graph):
        access = graph.find_function("Machine.access")
        boundaries = {
            e.target for e in graph.edges(access) if e.kind == "boundary"
        }
        assert boundaries == {"persist_hook"}

    def test_key_attr_normalizes_per_class(self, graph):
        scalar = graph.transitive([graph.find_function("Machine.access")])
        assert "Cache:*.hit" in scalar.counters
        assert "cycles.user" in scalar.counters

    def test_fixed_point_crosses_helper_chain(self, graph):
        batch = graph.transitive([graph.find_function("Replayer.kernel")])
        # Replayer.kernel -> (alias chain) -> Cache.commit_run.
        assert "Cache:*.hit" in batch.counters
        assert "cycles.user" in batch.counters

    def test_hoisted_bound_method_resolves(self, graph):
        hoisted = graph.find_function("Replayer.hoisted")
        targets = {
            e.target for e in graph.edges(hoisted) if e.kind == "call"
        }
        assert targets == {"pkg.machine:Machine.access"}
        assert "Cache:*.hit" in graph.transitive([hoisted]).counters

    def test_reachable_excludes_boundaries(self, graph):
        reach = graph.reachable([graph.find_function("Machine.access")])
        assert "pkg.cache:Cache.lookup" in reach
        assert not any("persist" in fid for fid in reach)

    def test_propagation_handles_cycles(self, tmp_path):
        ctx = make_context(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/loop.py": """
                class A:
                    def __init__(self, stats):
                        self._counters = stats.counters

                    def ping(self, n):
                        self._counters["loop.ping"] += 1
                        self.pong(n - 1)

                    def pong(self, n):
                        self._counters["loop.pong"] += 1
                        if n:
                            self.ping(n)
                """,
            },
        )
        graph = ProjectGraph(ctx)
        effects = graph.transitive([graph.find_function("A.ping")])
        assert set(effects.counters) == {"loop.ping", "loop.pong"}


class TestRealTreeGroundTruth:
    """The facts the drift checkers gate on, pinned explicitly."""

    @pytest.fixture(scope="class")
    def graph(self):
        ctx = build_context([REPO_ROOT / "src"], REPO_ROOT)
        return project_graph(ctx)

    def test_scalar_and_batch_share_core_tokens(self, graph):
        scalar = graph.transitive(resolve_roots(graph, SCALAR_ROOTS))
        batch = graph.transitive(resolve_roots(graph, BATCH_ROOTS))
        for token in (
            "tlb.hit",
            "tlb.miss",
            "tlb.evictions",
            "ops.reads",
            "ops.writes",
            "cycles.user",
            "walk.completed",
            "cache.writebacks",
            "nvm.reads",
            "nvm.buffered_writes",
            "dram.writes",
            "Cache:*.hit",
            "Cache:*.miss",
            "Cache:*.evictions",
            "MemoryChannel:*.read_row_hit",
            "MemoryChannel:*.write_row_miss",
            "interference.llc.self",
        ):
            assert token in scalar.counters, token
            assert token in batch.counters, token

    def test_kernel_reaches_the_one_line_path(self, graph):
        """The kernel's hoisted ``line_access`` resolves to the machine's
        line path, so the hierarchy's keys are reached from both roots."""
        kernel = graph.find_function("BatchReplayer._miss_run")
        line_path = graph.find_function("Machine.phys_line_access")
        assert line_path in graph.reachable([kernel])
        assert line_path in graph.reachable(resolve_roots(graph, SCALAR_ROOTS))

    def test_scalar_only_token_is_aborted_walks(self, graph):
        """Aborted walks happen only where the kernel falls back to
        scalar (faulting walk records)."""
        scalar = graph.transitive(resolve_roots(graph, SCALAR_ROOTS))
        batch = graph.transitive(resolve_roots(graph, BATCH_ROOTS))
        assert set(scalar.counters) - set(batch.counters) == {"walk.aborted"}
        assert set(batch.counters) - set(scalar.counters) == set()

    def test_scalar_boundaries_enumerated(self, graph):
        scalar = graph.transitive(resolve_roots(graph, SCALAR_ROOTS))
        assert set(scalar.boundaries) == {
            "extensions",
            "fault_handler",
            "persist_hook",
            "timer_callback",
            "walker",
        }


class TestSummaryCache:
    def _file(self, tmp_path, code, name="mod.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        return load_source_file(path, tmp_path)

    def test_miss_then_hit(self, tmp_path):
        file = self._file(tmp_path, "class A:\n    def f(self):\n        pass\n")
        cache_dir = tmp_path / "cache"
        cold = SummaryCache(cache_dir)
        first = cold.summary_for(file)
        assert (cold.hits, cold.misses) == (0, 1)
        warm = SummaryCache(cache_dir)
        second = warm.summary_for(file)
        assert (warm.hits, warm.misses) == (1, 0)
        assert second.to_json() == first.to_json()

    def test_edit_invalidates(self, tmp_path):
        cache_dir = tmp_path / "cache"
        file = self._file(tmp_path, "X = 1\n")
        SummaryCache(cache_dir).summary_for(file)
        edited = self._file(tmp_path, "X = 2\n")
        warm = SummaryCache(cache_dir)
        warm.summary_for(edited)
        assert (warm.hits, warm.misses) == (0, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        file = self._file(tmp_path, "X = 1\n")
        cache = SummaryCache(cache_dir)
        cache.summary_for(file)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        rebuilt = SummaryCache(cache_dir)
        rebuilt.summary_for(file)
        assert (rebuilt.hits, rebuilt.misses) == (0, 1)

    def test_graph_consumes_attached_cache(self, tmp_path):
        sources = {"pkg/__init__.py": "", "pkg/a.py": "class A:\n    pass\n"}
        for rel, code in sources.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code, encoding="utf-8")
        cache_dir = tmp_path / "cache"

        ctx = build_context([tmp_path], tmp_path)
        ctx._summary_cache = SummaryCache(cache_dir)
        ProjectGraph(ctx)
        assert ctx._summary_cache.misses > 0

        warm_ctx = build_context([tmp_path], tmp_path)
        warm_ctx._summary_cache = SummaryCache(cache_dir)
        ProjectGraph(warm_ctx)
        assert warm_ctx._summary_cache.misses == 0
        assert warm_ctx._summary_cache.hits > 0


class TestSarif:
    def test_document_shape_and_determinism(self, tmp_path):
        from repro.analysis.core import Finding
        from repro.analysis.registry import all_checkers

        findings = [
            Finding(
                checker="counter-parity",
                rule="counter-parity.missing-aggregation",
                path="src/repro/replay/batch.py",
                line=10,
                col=0,
                message="scalar bumps 'x.y' but no kernel aggregates it",
                hint="add it",
            )
        ]
        first = render(findings, all_checkers())
        second = render(findings, all_checkers())
        assert first == second
        assert first["version"] == "2.1.0"
        run = first["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "counter-parity" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "counter-parity"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/replay/batch.py"
        assert location["region"]["startLine"] == 10
        # Byte-identical when serialized deterministically.
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
