"""Enforce the serving API boundary mechanically — via the BND01 rule.

The boundary spec (public names, public submodules, forbidden internal
types) lives in exactly one place now:
:data:`repro.analysis.boundary.SERVICE_BOUNDARY`, enforced by
:class:`~repro.analysis.boundary.ImportBoundaryRule` both here and in
the CI ``analysis`` job. This test asserts the rule reports zero
findings on the tree, proves a synthetic violation *is* caught (so the
delegation can never rot into a vacuous pass), and guards that the scan
actually covers the known importers.
"""

import textwrap
from pathlib import Path

from repro.analysis import (
    SERVICE_BOUNDARY,
    ImportBoundaryRule,
    iter_python_files,
    run_analysis,
)

REPO = Path(__file__).resolve().parents[2]

#: Directories scanned for boundary violations (tests are exempt: they
#: white-box the internals on purpose). Mirrors the CLI's default scan.
SCAN_ROOTS = ("src/repro", "examples", "benchmarks", ".github/scripts")


def scan_paths():
    return [REPO / root for root in SCAN_ROOTS if (REPO / root).exists()]


def test_service_boundary_clean_on_head():
    findings = run_analysis(
        scan_paths(), rules=[ImportBoundaryRule(SERVICE_BOUNDARY)], root=REPO
    )
    assert not findings, (
        "internal service types leaked across the API boundary:\n  "
        + "\n  ".join(f"{f.location}: {f.message}" for f in findings)
    )


def test_synthetic_violations_are_caught(tmp_path):
    """Negative case: every class of violation the old ad-hoc walk caught
    must still be caught by the rule it delegated to."""
    offender = tmp_path / "offender.py"
    offender.write_text(
        textwrap.dedent(
            """
            import repro.service.gateway
            from repro.service.gateway import TenantService
            from repro.service import AsyncScoopClient, AnswerCache
            from repro.service.api import *

            def peek(gw):
                return gw.ServiceTicket
            """
        )
    )
    findings = run_analysis(
        [tmp_path], rules=[ImportBoundaryRule(SERVICE_BOUNDARY)], root=tmp_path
    )
    messages = "\n".join(f.message for f in findings)
    assert all(f.rule == "BND01" for f in findings)
    assert "whole-module import" in messages
    assert "internal module" in messages
    assert "'AnswerCache' is not part of the public" in messages
    # The public name beside it on the same line is not flagged.
    assert "AsyncScoopClient" not in messages
    assert "star import" in messages
    assert "'ServiceTicket' reached via attribute access" in messages
    # line-accurate: the ticket peek is attributed to its own line.
    assert any(f.line == 8 for f in findings if "ServiceTicket" in f.message)


def test_rule_exempts_the_package_itself():
    rule = ImportBoundaryRule(SERVICE_BOUNDARY)
    assert not rule.applies_to("src/repro/service/gateway.py")
    assert not rule.applies_to("src/repro/service")
    assert rule.applies_to("src/repro/experiments/runner.py")
    assert rule.applies_to("benchmarks/bench_query_service.py")


def test_scan_actually_covers_the_tree():
    """Guard the guard: the scan must see the known importers — if the
    directory layout changes and the walk silently misses them, this
    fails before the boundary test rots into a vacuous pass."""
    rule = ImportBoundaryRule(SERVICE_BOUNDARY)
    files = {
        p.resolve().relative_to(REPO).as_posix()
        for p in iter_python_files(scan_paths())
    }
    covered = {f for f in files if rule.applies_to(f)}
    assert "src/repro/experiments/runner.py" in covered
    assert "src/repro/experiments/__main__.py" in covered
    assert any(f.startswith("examples/") for f in covered)
    assert any(f.startswith("benchmarks/") for f in covered)
    assert any(f.startswith(".github/scripts/") for f in covered)
    assert not any(f.startswith("src/repro/service/") for f in covered)
