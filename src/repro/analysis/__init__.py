"""repro.analysis — the repo's own static invariant checker.

A plugin-based AST lint framework plus the repo-specific rule family
that keeps the determinism, performance and API-boundary disciplines
mechanical (see DESIGN.md "Static analysis" for the rule table):

========  ============================================================
DET01     no process-global ``random.*`` / unseeded ``random.Random()``
DET02     no wall-clock reads in simulated paths
DET03     no iteration over set displays in deterministic code
PERF01    hot-module classes declare ``__slots__``
BND01     declarative package API boundaries (``repro.service``)
SCHEMA01  schema changes ship with their version bump + fingerprint
========  ============================================================

Run it: ``python -m repro.analysis [paths] [--format text|github]``.
Suppress a deliberate finding inline with ``# repro: allow[RULE-ID]
reason`` (reason mandatory).
"""

from repro.analysis.boundary import (
    BOUNDARIES,
    SERVICE_BOUNDARY,
    BoundaryConfig,
    ImportBoundaryRule,
)
from repro.analysis.cli import DEFAULT_PATHS, default_rules, main
from repro.analysis.core import (
    PRAGMA_RE,
    REPO_ROOT,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    iter_python_files,
    run_analysis,
)
from repro.analysis.determinism import (
    GlobalRandomRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.perf import HOT_MODULES, SlotsRule
from repro.analysis.schema import (
    FINGERPRINT_PATH,
    SchemaVersionRule,
    compute_fingerprint,
    write_fingerprint,
)

__all__ = [
    "BOUNDARIES",
    "BoundaryConfig",
    "DEFAULT_PATHS",
    "FINGERPRINT_PATH",
    "FileContext",
    "Finding",
    "GlobalRandomRule",
    "HOT_MODULES",
    "ImportBoundaryRule",
    "PRAGMA_RE",
    "ProjectRule",
    "REPO_ROOT",
    "Rule",
    "SERVICE_BOUNDARY",
    "SchemaVersionRule",
    "SetIterationRule",
    "SlotsRule",
    "WallClockRule",
    "compute_fingerprint",
    "default_rules",
    "iter_python_files",
    "main",
    "run_analysis",
    "write_fingerprint",
]
