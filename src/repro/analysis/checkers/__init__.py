"""Repo-specific invariant checkers.

Importing this package registers every checker with
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401 - registration imports
    determinism,
    geometry,
    persistence,
    statskeys,
    tasksafety,
)
