"""Fixture-snippet tests for each repro.analysis checker.

Every checker gets at least one positive (violation found, with the
right rule id) and one negative (idiomatic code passes) fixture, plus
pragma behavior where the checker's suppressions matter.
"""

import textwrap

import pytest

from repro.analysis.core import build_context
from repro.analysis.registry import all_checkers, get_checker


def run_checker(checker_id, code, tmp_path, name="scratch_mod.py"):
    """Lint one snippet with one checker; returns the findings."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    ctx = build_context([path], tmp_path)
    checker = get_checker(checker_id)
    return [f for file in ctx.files for f in checker.run(file, ctx)]


def rules(findings):
    return [f.rule for f in findings]


class TestRegistry:
    def test_all_five_checkers_registered(self):
        ids = {c.id for c in all_checkers()}
        assert ids == {
            "determinism",
            "geometry",
            "persist-barrier",
            "stats-key",
            "task-safety",
        }

    def test_unknown_checker_raises(self):
        with pytest.raises(KeyError, match="no-such-checker"):
            get_checker("no-such-checker")

    def test_unknown_checker_message_lists_known_ids(self):
        with pytest.raises(KeyError, match="determinism"):
            get_checker("no-such-checker")

    def test_duplicate_registration_rejected(self):
        from repro.analysis.registry import Checker, register

        class Clone(Checker):
            id = "determinism"
            pragma = "determinism"

        with pytest.raises(ValueError, match="duplicate checker id"):
            register(Clone)
        # The original registration survives the failed attempt.
        assert type(get_checker("determinism")).__name__ != "Clone"


class TestDeterminism:
    def test_global_rng_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import random
            x = random.randint(0, 3)
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.global-rng"]

    def test_seeded_random_instance_allowed(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import random
            rng = random.Random(7)
            v = rng.randint(0, 3)
            """,
            tmp_path,
        )
        assert found == []

    def test_wallclock_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import time
            t = time.time()
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.wallclock"]

    def test_environ_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import os
            home = os.environ["HOME"]
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.environ"]

    def test_banned_from_import_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            from time import perf_counter
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.wallclock"]
        assert "perf_counter" in found[0].message

    def test_set_iteration_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            def diff(a, b):
                for item in set(a) - set(b):
                    print(item)
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.set-order"]

    def test_sorted_set_iteration_allowed(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            def diff(a, b):
                for item in sorted(set(a) - set(b)):
                    print(item)
            """,
            tmp_path,
        )
        assert found == []

    def test_builtin_hash_flagged(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            def key(s):
                return hash(s)
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.salted-hash"]

    def test_pragma_with_reason_suppresses(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import time
            t = time.time()  # repro: allow-nondet(host metadata only)
            """,
            tmp_path,
        )
        assert found == []

    def test_pragma_without_reason_does_not_count(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import time
            t = time.time()  # repro: allow-nondet()
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.wallclock"]

    def test_wrong_pragma_name_does_not_suppress(self, tmp_path):
        found = run_checker(
            "determinism",
            """
            import time
            t = time.time()  # repro: allow-geometry(not the right pragma)
            """,
            tmp_path,
        )
        assert rules(found) == ["determinism.wallclock"]


class TestGeometry:
    def test_literal_page_size_flagged(self, tmp_path):
        found = run_checker("geometry", "size = 3 * 4096\n", tmp_path)
        assert rules(found) == ["geometry.page-size"]

    def test_page_shift_flagged(self, tmp_path):
        found = run_checker("geometry", "vpn = addr >> 12\n", tmp_path)
        assert rules(found) == ["geometry.page-shift"]

    def test_line_division_flagged(self, tmp_path):
        found = run_checker("geometry", "line = off // 64\n", tmp_path)
        assert rules(found) == ["geometry.line-arith"]

    def test_hex_spelling_is_an_address_not_geometry(self, tmp_path):
        found = run_checker("geometry", "pc = 0x1000\n", tmp_path)
        assert found == []

    def test_bare_64_not_flagged(self, tmp_path):
        found = run_checker("geometry", "assoc = 64\nmb = 512\n", tmp_path)
        assert found == []

    def test_units_constants_pass(self, tmp_path):
        found = run_checker(
            "geometry",
            """
            from repro.common.units import CACHE_LINE, PAGE_SIZE
            size = 3 * PAGE_SIZE
            line = off // CACHE_LINE
            """,
            tmp_path,
        )
        assert found == []


class TestPersistBarrier:
    def test_direct_physmem_write_flagged(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def poke(machine, addr, data):
                machine.physmem.write(addr, data)
            """,
            tmp_path,
        )
        assert rules(found) == ["persist-barrier.unhooked-write"]

    def test_store_objects_access_flagged(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def sneak(store, key, value):
                store._objects[key] = value
            """,
            tmp_path,
        )
        assert rules(found) == ["persist-barrier.store-bypass"]

    def test_hook_assignment_flagged(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def silence(machine, store):
                machine.persist_hook = None
                store.hook = None
            """,
            tmp_path,
        )
        assert rules(found) == [
            "persist-barrier.hook-tamper",
            "persist-barrier.hook-tamper",
        ]

    def test_hooked_machine_store_passes(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def write(machine, addr, data):
                machine.store(addr, data)
                machine.clwb(addr)
                machine.fence()
            """,
            tmp_path,
        )
        assert found == []

    def test_tests_are_out_of_scope(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def poke(machine, addr, data):
                machine.physmem.write(addr, data)
            """,
            tmp_path,
            name="test_scratch.py",
        )
        assert found == []

    def test_faults_package_is_allowed(self, tmp_path):
        path = tmp_path / "scratch_mod.py"
        path.write_text(
            "def inject(machine):\n    machine.persist_hook = None\n",
            encoding="utf-8",
        )
        ctx = build_context([path], tmp_path)
        (file,) = ctx.files
        file.module = "repro.faults.scratch"  # simulate the injector package
        assert get_checker("persist-barrier").run(file, ctx) == []

    def test_direct_nvm_allocator_free_flagged(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def release(kernel, pfn):
                kernel.nvm_alloc.free(pfn)
            """,
            tmp_path,
        )
        assert rules(found) == ["persist-barrier.unmanaged-free"]

    def test_generic_allocator_free_flagged(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def release(allocator, kernel, mem_type, pfn):
                allocator.free(pfn)
                kernel.allocator_for(mem_type).free(pfn)
            """,
            tmp_path,
        )
        assert rules(found) == [
            "persist-barrier.unmanaged-free",
            "persist-barrier.unmanaged-free",
        ]

    def test_dram_allocator_free_is_exempt(self, tmp_path):
        # DRAM frames are volatile: no checkpoint can name them.
        found = run_checker(
            "persist-barrier",
            """
            def release(kernel, pfn):
                kernel.dram_alloc.free(pfn)
            """,
            tmp_path,
        )
        assert found == []

    def test_reclaim_module_may_free(self, tmp_path):
        path = tmp_path / "scratch_mod.py"
        path.write_text(
            "def retire(allocator, pfn):\n    allocator.free(pfn)\n",
            encoding="utf-8",
        )
        ctx = build_context([path], tmp_path)
        (file,) = ctx.files
        file.module = "repro.persist.reclaim"  # the reclamation API itself
        assert get_checker("persist-barrier").run(file, ctx) == []

    def test_pragma_suppresses_unmanaged_free(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def release(kernel, pfn):
                kernel.nvm_alloc.free(pfn)  # repro: allow-persist(default policy)
            """,
            tmp_path,
        )
        assert found == []

    def test_frame_release_api_passes(self, tmp_path):
        found = run_checker(
            "persist-barrier",
            """
            def release(kernel, process, vpn):
                kernel.frame_release.release_page(process, vpn)
            """,
            tmp_path,
        )
        assert found == []


class TestStatsKey:
    def test_key_mismatch_flagged(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, name, stats):
                    self._counters = stats.counters
                    self._hit_key = f"{name}.hits"
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.key-mismatch"]

    def test_matching_key_passes(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, name, stats):
                    self._counters = stats.counters
                    self._hit_key = f"{name}.hit"

                def bump(self):
                    self._counters[self._hit_key] += 1
            """,
            tmp_path,
        )
        assert found == []

    def test_shadow_copy_stem_mismatch_flagged(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Machine:
                def __init__(self, l1):
                    self._l1_hit_key = l1._miss_key
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.shadow-mismatch"]

    def test_shadow_copy_extending_stem_passes(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Machine:
                def __init__(self, l1):
                    self._l1_hit_key = l1._hit_key
            """,
            tmp_path,
        )
        assert found == []

    def test_inline_fstring_bump_flagged(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, name, stats):
                    self.name = name
                    self._counters = stats.counters

                def bump(self):
                    self._counters[f"{self.name}.hit"] += 1
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.inline-format"]

    def test_unassigned_key_attr_flagged(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, stats):
                    self._counters = stats.counters

                def bump(self):
                    self._counters[self._phantom_key] += 1
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.unassigned-key"]

    def test_string_constant_index_passes(self, tmp_path):
        found = run_checker(
            "stats-key",
            """
            class Tlb:
                def __init__(self, stats):
                    self._counters = stats.counters

                def bump(self, is_write):
                    self._counters["tlb.hit"] += 1
                    self._counters["ops.writes" if is_write else "ops.reads"] += 1
            """,
            tmp_path,
        )
        assert found == []

    def test_monitor_style_cached_pair_key_passes(self, tmp_path):
        """The interference-monitor idiom: static ``*_key`` attributes
        whose stem echoes the counter leaf, plus dynamic per-pair keys
        formatted once into a cache and indexed via a plain local —
        all three access styles are checker-legal."""
        found = run_checker(
            "stats-key",
            """
            class Monitor:
                def __init__(self, stats):
                    self._counters = stats.counters
                    self._llc_self_key = "interference.llc.self"
                    self._llc_cross_key = "interference.llc.cross"
                    self._pair_keys = {}

                def _pair_key(self, evictor, victim):
                    key = self._pair_keys.get((evictor, victim))
                    if key is None:
                        key = f"interference.llc.p{evictor}_evicted_p{victim}"
                        self._pair_keys[(evictor, victim)] = key
                    return key

                def note(self, pid, previous):
                    if previous == pid:
                        self._counters[self._llc_self_key] += 1
                    else:
                        self._counters[self._llc_cross_key] += 1
                        pair_key = self._pair_key(pid, previous)
                        self._counters[pair_key] += 1
            """,
            tmp_path,
        )
        assert found == []

    def test_monitor_inline_pair_key_flagged(self, tmp_path):
        """The tempting shortcut — formatting the pair key inline at
        every cross eviction — re-allocates the string on the hot path
        and is exactly what the inline-format rule exists to catch."""
        found = run_checker(
            "stats-key",
            """
            class Monitor:
                def __init__(self, stats):
                    self._counters = stats.counters

                def note(self, pid, previous):
                    self._counters[f"interference.llc.p{pid}_evicted_p{previous}"] += 1
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.inline-format"]

    def test_guarded_run_commit_bulk_add_passes(self, tmp_path):
        """The batch-engine run-commit idiom: per-run totals accumulate
        in locals, then guarded bulk adds (``if n: counters[key] += n``)
        commit them — through cached ``*_key`` attributes and string
        constants alike.  The guards matter for golden equivalence
        (a zero-valued add would create a key the scalar path never
        creates) and must not trip the checker."""
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, name, stats):
                    lower = name.lower()
                    self._counters = stats.counters
                    self._hit_key = f"{lower}.hit"
                    self._miss_key = f"{lower}.miss"

                def commit_run(self, hits, misses, writes, length):
                    counters = self._counters
                    if hits:
                        counters[self._hit_key] += hits
                    if misses:
                        counters[self._miss_key] += misses
                    if writes:
                        counters["ops.writes"] += writes
                    if length - writes:
                        counters["ops.reads"] += length - writes
            """,
            tmp_path,
        )
        assert found == []

    def test_run_commit_inline_key_flagged(self, tmp_path):
        """A run commit that re-formats its counter key per call is
        still an inline-format violation — bulk adds don't exempt the
        key-construction rule."""
        found = run_checker(
            "stats-key",
            """
            class Cache:
                def __init__(self, name, stats):
                    self.name = name
                    self._counters = stats.counters

                def commit_run(self, hits):
                    if hits:
                        self._counters[f"{self.name}.hit"] += hits
            """,
            tmp_path,
        )
        assert rules(found) == ["stats-key.inline-format"]


class TestTaskSafety:
    @staticmethod
    def _make_target_pkg(tmp_path):
        pkg = tmp_path / "scratchpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "cells.py").write_text(
            textwrap.dedent(
                """
                def good_cell(n):
                    return n + 1

                def bad_cell(n, acc=[]):
                    acc.append(n)
                    return acc
                """
            ),
            encoding="utf-8",
        )
        return pkg

    def _run(self, code, tmp_path):
        pkg = self._make_target_pkg(tmp_path)
        caller = tmp_path / "caller_mod.py"
        caller.write_text(textwrap.dedent(code), encoding="utf-8")
        ctx = build_context([caller, pkg], tmp_path)
        checker = get_checker("task-safety")
        return [f for file in ctx.files for f in checker.run(file, ctx)]

    def test_resolvable_top_level_target_passes(self, tmp_path):
        found = self._run(
            """
            t = Task("scratchpkg.cells:good_cell", {"n": 1})
            """,
            tmp_path,
        )
        assert found == []

    def test_malformed_target_flagged(self, tmp_path):
        found = self._run('t = Task("no-colon-here")\n', tmp_path)
        assert rules(found) == ["task-safety.malformed-target"]

    def test_unresolvable_module_flagged(self, tmp_path):
        found = self._run('t = Task("scratchpkg.missing:fn")\n', tmp_path)
        assert rules(found) == ["task-safety.unresolvable"]

    def test_missing_function_flagged(self, tmp_path):
        found = self._run('t = Task("scratchpkg.cells:nope")\n', tmp_path)
        assert rules(found) == ["task-safety.not-top-level"]

    def test_mutable_default_flagged(self, tmp_path):
        found = self._run('t = Task("scratchpkg.cells:bad_cell")\n', tmp_path)
        assert rules(found) == ["task-safety.mutable-default"]

    def test_module_constant_target_resolved(self, tmp_path):
        found = self._run(
            """
            TARGET = "scratchpkg.cells:bad_cell"
            t = Task(TARGET)
            """,
            tmp_path,
        )
        assert rules(found) == ["task-safety.mutable-default"]

    def test_fstring_target_flagged_dynamic(self, tmp_path):
        found = self._run(
            """
            t = Task(f"scratchpkg.cells:{name}")
            """,
            tmp_path,
        )
        assert rules(found) == ["task-safety.dynamic-target"]

    def test_sweep_call_spec_checked(self, tmp_path):
        found = self._run(
            """
            results = sweep(engine, "scratchpkg.cells:nope", [{}])
            """,
            tmp_path,
        )
        assert rules(found) == ["task-safety.not-top-level"]

    def test_runtime_threaded_name_skipped(self, tmp_path):
        found = self._run(
            """
            def dispatch(spec):
                return Task(spec)
            """,
            tmp_path,
        )
        assert found == []

    def test_real_engine_targets_resolve(self, tmp_path):
        # The shipped sweep helper target must stay statically valid.
        found = self._run(
            """
            t = Task("repro.exec.engine:probe_cell", {})
            """,
            tmp_path,
        )
        assert found == []


class TestFindingPlumbing:
    def test_render_names_file_line_rule_and_hint(self, tmp_path):
        (finding,) = run_checker("geometry", "size = 4096\n", tmp_path)
        text = finding.render()
        assert "scratch_mod.py:1:" in text
        assert "[geometry.page-size]" in text
        assert "PAGE_SIZE" in text
        assert "allow-geometry" in text  # the hint teaches the pragma

    def test_identity_ignores_line_numbers(self, tmp_path):
        (a,) = run_checker("geometry", "size = 4096\n", tmp_path)
        (b,) = run_checker("geometry", "\n\nsize = 4096\n", tmp_path)
        assert a.line != b.line
        assert a.identity() == b.identity()


class TestPragmaSpans:
    """Pin suppression semantics on multi-line statements and decorated
    defs before the whole-program checkers lean on them."""

    def test_trailing_pragma_on_finding_line(self, tmp_path):
        found = run_checker(
            "geometry",
            "A = 4096  # repro: allow-geometry(page knob, intentional)\n",
            tmp_path,
        )
        assert found == []

    def test_pragma_without_reason_does_not_count(self, tmp_path):
        found = run_checker(
            "geometry", "A = 4096  # repro: allow-geometry()\n", tmp_path
        )
        assert rules(found) == ["geometry.page-size"]

    def test_multiline_statement_pragma_on_literal_line(self, tmp_path):
        found = run_checker(
            "geometry",
            """
            SIZES = [
                512,
                4096,  # repro: allow-geometry(sweep point, not geometry)
            ]
            """,
            tmp_path,
        )
        assert found == []

    def test_multiline_statement_pragma_on_line_above_literal(self, tmp_path):
        found = run_checker(
            "geometry",
            """
            SIZES = [
                512,
                # repro: allow-geometry(sweep point, not geometry)
                4096,
            ]
            """,
            tmp_path,
        )
        assert found == []

    def test_multiline_statement_first_line_pragma_is_too_far(self, tmp_path):
        # Current semantics: suppression reaches the finding's line and
        # the line just above, not the whole enclosing statement.  A
        # pragma on the statement's first line does NOT cover a literal
        # two lines further down.
        found = run_checker(
            "geometry",
            """
            SIZES = [  # repro: allow-geometry(whole table)
                512,
                4096,
            ]
            """,
            tmp_path,
        )
        assert rules(found) == ["geometry.page-size"]

    def test_decorated_def_pragma_on_decorator_line(self, tmp_path):
        # The finding sits in the decorator's argument list (line below
        # the decorator call opener): the construct's first line is the
        # line just above, so the pragma reaches it.
        found = run_checker(
            "geometry",
            """
            def parametrize(name, values):
                def wrap(fn):
                    return fn
                return wrap

            @parametrize(  # repro: allow-geometry(fixture sweep values)
                "size", [4096]
            )
            def job(size):
                return size
            """,
            tmp_path,
        )
        assert found == []

    def test_decorated_def_pragma_on_def_line_does_not_reach_up(self, tmp_path):
        found = run_checker(
            "geometry",
            """
            def parametrize(name, values):
                def wrap(fn):
                    return fn
                return wrap

            @parametrize(
                "size", [4096]
            )
            def job(size):  # repro: allow-geometry(wrong line)
                return size
            """,
            tmp_path,
        )
        assert rules(found) == ["geometry.page-size"]
