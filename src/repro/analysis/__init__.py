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

The package checks conventions one file at a time; batch/scalar
parity is not its job.  Drift between the batch replay kernel and the
scalar path (a dropped or invented stat tally, a missing fallback
guard, an impure interference observer) is caught at run time by the
golden-equivalence, miss-path and batch-replay suites, which compare
the stats dump, clock and physical memory byte for byte; a tier-1
test matches the documented fallback taxonomy against
:data:`repro.replay.batch.FALLBACK_REASONS` (see "Drift gates" in
EXPERIMENTS.md).

Run ``python -m repro.analysis`` (text, ``--format json`` or
``--format sarif``, optional ``--baseline`` suppression file,
``--changed`` fast path); intentional violations carry an inline
pragma::

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
