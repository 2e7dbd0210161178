"""Static invariant analysis for the simulator's own source tree.

The repo's runtime guarantees — byte-identical parallel/serial replay,
exhaustive crash-point enumeration, geometry derived from
:mod:`repro.common.units` — are *conventions*, and conventions rot: one
unhooked NVM write or one ``random.random()`` in a new subsystem
silently invalidates the golden-equivalence and crash-matrix tests
three PRs later.  This package walks the source with :mod:`ast` (no
code is imported or executed) and enforces those conventions at review
time.

Five per-file checkers ship with the repo (see
:mod:`repro.analysis.checkers`):

``determinism``
    wall-clock reads, global RNG draws, environment reads, salted
    ``hash()`` and unordered-set iteration outside
    ``repro.common.{rng,timers}``;
``persist-barrier``
    NVM-state mutations that bypass the persist hook / consistency
    primitives and would escape crash-point enumeration;
``geometry``
    literal page/cache-line arithmetic where
    :mod:`repro.common.units` constants exist;
``stats-key``
    drift between precomputed hot-path stat-key attributes and the
    counter names they shadow;
``task-safety``
    ``repro.exec`` task targets that are not top-level,
    import-resolvable, mutable-default-free functions.

Three *whole-program* checkers reason over a cross-module call graph
with fixed-point effect propagation (:mod:`repro.analysis.graph`,
built from :mod:`repro.analysis.effects` summaries) instead of one
file at a time:

``counter-parity``
    every stat key the scalar replay path bumps is reachable from the
    batch miss-run kernel, and the kernels invent no batch-only keys;
``fallback-coverage``
    every dynamic scalar boundary (walkers, fault/persist hooks,
    extensions, timers, os-mode) has a kernel eligibility guard and a
    row in the EXPERIMENTS.md scalar-fallback taxonomy;
``observer-purity``
    interference-monitor hooks stay pure: own state and
    ``interference.*`` counters only.

Run ``python -m repro.analysis`` (text, ``--format json`` or
``--format sarif``, optional ``--baseline`` suppression file,
``--changed`` fast path, ``--cache-dir`` incremental effect-summary
cache keyed on import-closure fingerprints); intentional violations
carry an inline pragma::

    t0 = time.perf_counter()  # repro: allow-nondet(wall-clock bench measurement)
"""

from __future__ import annotations

from repro.analysis.core import AnalysisContext, Finding, SourceFile
from repro.analysis.registry import all_checkers, get_checker

__all__ = [
    "AnalysisContext",
    "Finding",
    "SourceFile",
    "all_checkers",
    "get_checker",
]
