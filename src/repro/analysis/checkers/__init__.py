"""Repo-specific invariant checkers.

Importing this package registers every checker with
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401 - registration imports
    counterparity,
    determinism,
    fallbackcov,
    geometry,
    observerpurity,
    persistence,
    statskeys,
    tasksafety,
)
