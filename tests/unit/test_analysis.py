"""The invariant checker: framework mechanics and every shipped rule.

Fixture-driven: each rule gets inline source snippets that must fire
(with line-accurate findings) and near-miss snippets that must not.
Framework tests cover pragma suppression, output formats and scoping;
the integration class at the bottom runs the real CLI over the real tree
and requires it clean — the same gate CI applies.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_PATHS,
    FINGERPRINT_PATH,
    Finding,
    GlobalRandomRule,
    SetIterationRule,
    SlotsRule,
    WallClockRule,
    compute_fingerprint,
    default_rules,
    main,
    run_analysis,
)
from repro.analysis.cli import _render
from repro.analysis.schema import SchemaVersionRule, write_fingerprint

REPO = Path(__file__).resolve().parents[2]


def check_snippet(rule, source, tmp_path, name="snippet.py"):
    """Run one rule (scope widened to everything) over one source
    snippet; return its findings."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    rule.scope = ()
    return run_analysis([path], rules=[rule], root=tmp_path)


# ----------------------------------------------------------------------
# DET01 — process-global RNG
# ----------------------------------------------------------------------
class TestDet01:
    def test_global_function_call_fires(self, tmp_path):
        findings = check_snippet(
            GlobalRandomRule(),
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """,
            tmp_path,
        )
        assert [f.rule for f in findings] == ["DET01"]
        assert findings[0].line == 5
        assert "process-global RNG" in findings[0].message

    def test_unseeded_random_fires_seeded_does_not(self, tmp_path):
        findings = check_snippet(
            GlobalRandomRule(),
            """
            import random

            bad = random.Random()
            good = random.Random(42)
            also_good = random.Random(seed=42)
            """,
            tmp_path,
        )
        assert [(f.rule, f.line) for f in findings] == [("DET01", 4)]
        assert "explicit seed" in findings[0].message

    def test_aliased_and_from_imports_resolved(self, tmp_path):
        findings = check_snippet(
            GlobalRandomRule(),
            """
            import random as rnd
            from random import shuffle, Random

            def scramble(xs):
                rnd.shuffle(xs)
                shuffle(xs)
                return Random()
            """,
            tmp_path,
        )
        assert [f.line for f in findings] == [6, 7, 8]

    def test_injected_rng_is_clean(self, tmp_path):
        findings = check_snippet(
            GlobalRandomRule(),
            """
            import random

            def sample(rng: random.Random):
                return rng.random() + rng.uniform(0, 1)
            """,
            tmp_path,
        )
        assert findings == []


# ----------------------------------------------------------------------
# DET02 — wall clock
# ----------------------------------------------------------------------
class TestDet02:
    def test_time_and_datetime_reads_fire(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time
            from datetime import datetime

            def stamp():
                return time.perf_counter(), time.time(), datetime.now()
            """,
            tmp_path,
        )
        assert len(findings) == 3
        assert {f.rule for f in findings} == {"DET02"}
        assert "host clock" in findings[0].message

    def test_sim_time_is_clean(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time

            def airtime(sim, frame, bitrate):
                # time.* the module is fine to import; only clock reads fire
                start = sim.now
                return start + frame.wire_bytes() * 8.0 / bitrate
            """,
            tmp_path,
        )
        assert findings == []

    def test_scope_excludes_out_of_scope_files(self):
        rule = WallClockRule()
        assert rule.applies_to("src/repro/sim/kernel.py")
        assert rule.applies_to("src/repro/experiments/runner.py")
        assert not rule.applies_to("src/repro/experiments/export.py")
        assert not rule.applies_to("src/repro/service/loadtest.py")


# ----------------------------------------------------------------------
# DET03 — set iteration
# ----------------------------------------------------------------------
class TestDet03:
    def test_for_over_set_display_fires(self, tmp_path):
        findings = check_snippet(
            SetIterationRule(),
            """
            def visit(nodes):
                for n in {3, 1, 2}:
                    yield n
                out = [x for x in {n for n in nodes}]
                for m in set(nodes):
                    yield m
                return out
            """,
            tmp_path,
        )
        assert [f.line for f in findings] == [3, 5, 6]

    def test_sorted_and_membership_are_clean(self, tmp_path):
        findings = check_snippet(
            SetIterationRule(),
            """
            def visit(nodes):
                for n in sorted(set(nodes)):
                    yield n
                if 3 in {1, 2, 3}:
                    yield -1
                targets = {1, 2} - {2}
                return targets
            """,
            tmp_path,
        )
        assert findings == []


# ----------------------------------------------------------------------
# PERF01 — __slots__ in hot modules
# ----------------------------------------------------------------------
class TestPerf01:
    def test_unslotted_class_fires(self, tmp_path):
        findings = check_snippet(
            SlotsRule(),
            """
            class Hot:
                def __init__(self):
                    self.x = 1
            """,
            tmp_path,
        )
        assert [(f.rule, f.line) for f in findings] == [("PERF01", 2)]
        assert "Hot" in findings[0].message

    def test_slots_dataclass_enum_protocol_exception_clean(self, tmp_path):
        findings = check_snippet(
            SlotsRule(),
            """
            import enum
            from dataclasses import dataclass
            from typing import Protocol

            class Slotted:
                __slots__ = ("x",)

            @dataclass(slots=True)
            class Record:
                x: int = 0

            class Kind(enum.Enum):
                A = 1

            class Listener(Protocol):
                def on_receive(self, frame): ...

            class BoomError(RuntimeError):
                pass
            """,
            tmp_path,
        )
        assert findings == []

    def test_plain_dataclass_fires_and_allowlist_exempts(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Config:
                x: int = 0
            """
        assert len(check_snippet(SlotsRule(), source, tmp_path)) == 1
        assert (
            check_snippet(
                SlotsRule(allow=frozenset({"Config"})), source, tmp_path
            )
            == []
        )

    def test_hot_module_scope(self):
        rule = SlotsRule()
        assert rule.applies_to("src/repro/sim/kernel.py")
        assert rule.applies_to("src/repro/core/node.py")
        assert not rule.applies_to("src/repro/core/basestation.py")


# ----------------------------------------------------------------------
# SCHEMA01 — version-bump discipline
# ----------------------------------------------------------------------
def write_schema_tree(
    root,
    spec_version=3,
    protocol_version=1,
    spec_extra="",
    wire_extra="",
    default="0",
    scoop_default="15.0",
):
    for package in ("experiments", "core", "workloads", "sim", "service"):
        (root / "src/repro" / package).mkdir(parents=True, exist_ok=True)
    (root / "src/repro/experiments/runner.py").write_text(
        textwrap.dedent(
            f"""
            from dataclasses import dataclass

            SPEC_SCHEMA_VERSION = {spec_version}

            @dataclass
            class ExperimentSpec:
                policy: str = "scoop"
                seed: int = {default}
                {spec_extra or "pass"}

            @dataclass
            class ExperimentResult:
                total_messages: float = 0.0
            """
        )
    )
    (root / "src/repro/core/config.py").write_text(
        textwrap.dedent(
            f"""
            from dataclasses import dataclass

            @dataclass
            class ScoopConfig:
                sample_interval: float = {scoop_default}
            """
        )
    )
    (root / "src/repro/workloads/queries.py").write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass
            class QueryPlanConfig:
                kind: str = "value"
            """
        )
    )
    (root / "src/repro/sim/metrics.py").write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass
            class TrialMetrics:
                messages: dict = None
            """
        )
    )
    (root / "src/repro/service/api.py").write_text(
        textwrap.dedent(
            f"""
            from dataclasses import dataclass

            PROTOCOL_VERSION = {protocol_version}

            @dataclass(frozen=True)
            class QueryRequest:
                tenant: str = "tenant0"
                {wire_extra or "pass"}

            @dataclass(frozen=True)
            class QueryAnswer:
                tenant: str = ""

            @dataclass(frozen=True)
            class ServiceError:
                code: str = ""

            @dataclass(frozen=True)
            class ServiceStats:
                tenants: dict = None
            """
        )
    )


class TestSchema01:
    def test_clean_when_fingerprint_matches(self, tmp_path):
        write_schema_tree(tmp_path)
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        rule = SchemaVersionRule(fingerprint_path=fp)
        assert list(rule.check_project(tmp_path)) == []

    def test_spec_field_change_without_bump_fires(self, tmp_path):
        write_schema_tree(tmp_path)
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        write_schema_tree(tmp_path, spec_extra="churn_rate: float = 0.0")
        findings = list(
            SchemaVersionRule(fingerprint_path=fp).check_project(tmp_path)
        )
        assert [f.rule for f in findings] == ["SCHEMA01"]
        assert "without a SPEC_SCHEMA_VERSION bump" in findings[0].message
        assert "ExperimentSpec" in findings[0].message
        assert findings[0].path.endswith("runner.py")

    def test_default_change_counts_as_schema_change(self, tmp_path):
        write_schema_tree(tmp_path, default="0")
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        write_schema_tree(tmp_path, default="7")
        findings = list(
            SchemaVersionRule(fingerprint_path=fp).check_project(tmp_path)
        )
        assert len(findings) == 1
        assert "without a SPEC_SCHEMA_VERSION bump" in findings[0].message

    def test_nested_config_default_change_without_bump_fires(self, tmp_path):
        write_schema_tree(tmp_path)
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        write_schema_tree(tmp_path, scoop_default="30.0")
        findings = list(
            SchemaVersionRule(fingerprint_path=fp).check_project(tmp_path)
        )
        assert len(findings) == 1
        assert "without a SPEC_SCHEMA_VERSION bump" in findings[0].message
        assert "(ScoopConfig)" in findings[0].message

    def test_bump_with_refresh_is_clean_without_refresh_fires(self, tmp_path):
        write_schema_tree(tmp_path)
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        # schema change + version bump, fingerprint not yet refreshed:
        write_schema_tree(
            tmp_path, spec_version=4, spec_extra="churn_rate: float = 0.0"
        )
        rule = SchemaVersionRule(fingerprint_path=fp)
        findings = list(rule.check_project(tmp_path))
        assert len(findings) == 1
        assert "fingerprint is stale" in findings[0].message
        # refreshing in the same tree makes it clean:
        write_fingerprint(tmp_path, path=fp)
        assert list(rule.check_project(tmp_path)) == []

    def test_wire_change_without_protocol_bump_fires(self, tmp_path):
        write_schema_tree(tmp_path)
        fp = tmp_path / "fingerprint.json"
        write_fingerprint(tmp_path, path=fp)
        write_schema_tree(tmp_path, wire_extra="priority: int = 0")
        findings = list(
            SchemaVersionRule(fingerprint_path=fp).check_project(tmp_path)
        )
        assert len(findings) == 1
        assert "without a PROTOCOL_VERSION bump" in findings[0].message
        assert findings[0].path.endswith("api.py")

    def test_missing_fingerprint_fires(self, tmp_path):
        write_schema_tree(tmp_path)
        findings = list(
            SchemaVersionRule(
                fingerprint_path=tmp_path / "absent.json"
            ).check_project(tmp_path)
        )
        assert len(findings) == 1
        assert "no committed schema fingerprint" in findings[0].message


# ----------------------------------------------------------------------
# Framework: pragmas, baselines, formats, engine
# ----------------------------------------------------------------------
class TestPragmas:
    def test_same_line_pragma_with_reason_suppresses(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time

            t = time.time()  # repro: allow[DET02] measuring real IO latency
            """,
            tmp_path,
        )
        assert findings == []

    def test_line_above_pragma_suppresses(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time

            # repro: allow[DET02] measuring real IO latency
            t = time.time()
            """,
            tmp_path,
        )
        assert findings == []

    def test_pragma_without_reason_does_not_suppress(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time

            t = time.time()  # repro: allow[DET02]
            """,
            tmp_path,
        )
        assert len(findings) == 1

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        findings = check_snippet(
            WallClockRule(),
            """
            import time

            t = time.time()  # repro: allow[DET01] wrong rule named
            """,
            tmp_path,
        )
        assert len(findings) == 1

    def test_comma_list_covers_both_rules(self, tmp_path):
        path = tmp_path / "both.py"
        path.write_text(
            textwrap.dedent(
                """
                import time
                import random

                # repro: allow[DET01, DET02] fixture exercising both rules
                x = random.random() + time.time()
                """
            )
        )
        det1, det2 = GlobalRandomRule(), WallClockRule()
        det1.scope = det2.scope = ()
        assert run_analysis([path], rules=[det1, det2], root=tmp_path) == []


class TestEngineAndFormats:
    def test_github_format_annotations(self):
        findings = [Finding(path="a.py", line=3, rule="DET01", message="msg")]
        out = _render(findings, "github")
        assert out == "::error file=a.py,line=3,title=DET01::msg"
        assert _render(findings, "text") == "a.py:3: DET01 msg"

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        rule = WallClockRule()
        rule.scope = ()
        findings = run_analysis([bad], rules=[rule], root=tmp_path)
        assert [f.rule for f in findings] == ["PARSE"]

    def test_pycache_skipped_and_findings_sorted(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "z.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        rule = WallClockRule()
        rule.scope = ()
        findings = run_analysis([tmp_path], rules=[rule], root=tmp_path)
        assert [f.path for f in findings] == ["a.py", "z.py"]


# ----------------------------------------------------------------------
# The real tree: checker-clean on HEAD, CLI exit codes, hygiene guards
# ----------------------------------------------------------------------
class TestCheckerOnHead:
    def test_head_is_clean(self, capsys):
        """The acceptance gate: zero non-pragma'd findings on the tree,
        through the same entry point CI calls."""
        rc = main([str(REPO / p) for p in DEFAULT_PATHS])
        assert rc == 0, capsys.readouterr().out

    def test_committed_fingerprint_is_current(self):
        committed = json.loads(FINGERPRINT_PATH.read_text())
        assert committed == compute_fingerprint(REPO)

    def test_cli_unknown_path_is_usage_error(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_default_rules_cover_the_shipped_family(self):
        ids = {r.rule_id for r in default_rules()}
        assert ids == {"DET01", "DET02", "DET03", "PERF01", "BND01", "SCHEMA01"}


class TestTreeHygiene:
    def test_gitignore_covers_bytecode(self):
        ignored = (REPO / ".gitignore").read_text()
        assert "__pycache__/" in ignored
        assert "*.pyc" in ignored

    def test_no_tracked_bytecode(self):
        """CI asserts this too; the test keeps it enforced locally."""
        try:
            tracked = subprocess.run(
                ["git", "ls-files"],
                cwd=REPO,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            ).stdout.splitlines()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        litter = [
            f
            for f in tracked
            if "__pycache__" in f.split("/") or f.endswith(".pyc")
        ]
        assert litter == []

    def test_checker_runs_under_this_interpreter(self):
        """`python -m repro.analysis --list-rules` works as a subprocess
        (the exact invocation CI and the README quickstart use)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        for rule_id in ("DET01", "DET02", "DET03", "PERF01", "BND01", "SCHEMA01"):
            assert rule_id in proc.stdout
