"""``python -m repro.analysis`` — the invariant checker CLI.

Exit status: 0 when there are no findings, 1 when findings remain, 2 on
usage errors. ``--format github`` emits workflow error annotations
so findings land inline on the PR diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.boundary import BOUNDARIES, ImportBoundaryRule
from repro.analysis.core import REPO_ROOT, Finding, run_analysis
from repro.analysis.determinism import (
    GlobalRandomRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.perf import SlotsRule
from repro.analysis.schema import SchemaVersionRule, write_fingerprint

#: What a bare ``python -m repro.analysis`` checks: the library, the
#: benchmark/example surfaces, and the CI gate scripts. Tests are exempt
#: by default — they white-box internals on purpose.
DEFAULT_PATHS = ("src", "benchmarks", "examples", ".github/scripts")


def default_rules() -> List[object]:
    """The shipped rule set, each config-scoped to where it applies."""
    rules: List[object] = [
        GlobalRandomRule(),
        WallClockRule(),
        SetIterationRule(),
        SlotsRule(),
        SchemaVersionRule(),
    ]
    rules.extend(ImportBoundaryRule(config) for config in BOUNDARIES)
    return rules


def _render(findings: Sequence[Finding], fmt: str) -> str:
    if fmt == "github":
        return "\n".join(
            f"::error file={f.path},line={f.line},title={f.rule}::{f.message}"
            for f in findings
        )
    return "\n".join(f"{f.location}: {f.rule} {f.message}" for f in findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static determinism/boundary/perf invariant checker for the "
            "Scoop reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format (github = workflow error annotations)",
    )
    parser.add_argument(
        "--write-schema-fingerprint",
        action="store_true",
        help=(
            "recompute and commit the SCHEMA01 fingerprint (run after a "
            "deliberate schema + version change), then exit"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the shipped rules and their scopes, then exit",
    )
    args = parser.parse_args(argv)

    if args.write_schema_fingerprint:
        write_fingerprint(REPO_ROOT)
        print("schema fingerprint refreshed")
        return 0

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            scope = getattr(rule, "scope", ()) or ("<all scanned files>",)
            print(f"{rule.rule_id}: {rule.description}")
            for prefix in scope:
                print(f"    {prefix}")
        return 0

    raw_paths = args.paths or list(DEFAULT_PATHS)
    paths: List[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.is_absolute() and not path.exists():
            # Convenience: resolve the default roots against the repo even
            # when invoked from elsewhere.
            candidate = REPO_ROOT / raw
            if candidate.exists():
                path = candidate
        if not path.exists():
            print(f"error: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    findings = run_analysis(paths, rules)
    if findings:
        print(_render(findings, args.format))
        print(
            f"\n{len(findings)} finding(s). Fix them, or suppress a "
            "deliberate one with `# repro: allow[RULE-ID] reason`.",
            file=sys.stderr,
        )
        return 1
    print("analysis clean: no findings")
    return 0
