"""SCHEMA01 — schema changes ship with a version bump, mechanically.

Two version counters guard two serialized surfaces:

* ``SPEC_SCHEMA_VERSION`` (``repro.experiments.runner``) — the trial
  spec/result serialization: the field names *and defaults* (defaults
  are part of the cache key) of :class:`ExperimentSpec` and of the two
  configs it nests, :class:`ScoopConfig` and :class:`QueryPlanConfig`,
  plus the field lists of :class:`ExperimentResult` and
  :class:`TrialMetrics`;
* ``PROTOCOL_VERSION`` (``repro.service.api``) — the service wire
  vocabulary: the field lists of the four frozen wire dataclasses.

A fingerprint of both surfaces is committed next to this module
(``schema_fingerprint.json``). The rule recomputes it from the AST — no
imports, pure static analysis — and fires when the surface changed but
its version counter did not, turning the "schema v6→v7" discipline from
CHANGES.md into a machine check. After a legitimate bump, refresh the
committed fingerprint with ``python -m repro.analysis
--write-schema-fingerprint`` (the rule demands this too, so the
fingerprint can never silently rot).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, ProjectRule

#: Committed fingerprint of both schema surfaces.
FINGERPRINT_PATH = Path(__file__).with_name("schema_fingerprint.json")

#: (repo-relative file, version constant, classes whose *names+defaults*
#: are fingerprinted, classes whose *field lists* are fingerprinted).
SPEC_FILE = "src/repro/experiments/runner.py"
SPEC_VERSION_NAME = "SPEC_SCHEMA_VERSION"
CONFIG_FILE = "src/repro/core/config.py"
QUERY_PLAN_FILE = "src/repro/workloads/queries.py"
METRICS_FILE = "src/repro/sim/metrics.py"
WIRE_FILE = "src/repro/service/api.py"
WIRE_VERSION_NAME = "PROTOCOL_VERSION"
WIRE_CLASSES = ("QueryRequest", "QueryAnswer", "ServiceError", "ServiceStats")


def _parse(root: Path, rel: str) -> ast.Module:
    return ast.parse((root / rel).read_text(encoding="utf-8"), filename=rel)


def _int_constant(tree: ast.Module, name: str, rel: str) -> Tuple[int, int]:
    """Value and line of a module-level ``NAME = <int>`` assignment."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value, node.lineno
    raise LookupError(f"{rel} has no integer constant {name}")


def _class_def(tree: ast.Module, name: str, rel: str) -> ast.ClassDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise LookupError(f"{rel} defines no class {name}")


def _fields(cls: ast.ClassDef, with_defaults: bool) -> List[Dict[str, object]]:
    """Dataclass fields as the AST sees them: annotated assignments in
    declaration order. ``with_defaults`` additionally captures each
    default's source text (defaults feed the cache key, so changing one
    changes the schema even when no field is added)."""
    out: List[Dict[str, object]] = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        entry: Dict[str, object] = {"name": stmt.target.id}
        if with_defaults:
            entry["default"] = (
                None if stmt.value is None else ast.unparse(stmt.value)
            )
        out.append(entry)
    return out


def compute_fingerprint(root: Path) -> Dict[str, object]:
    """The live schema fingerprint, computed from source ASTs only."""
    runner = _parse(root, SPEC_FILE)
    config = _parse(root, CONFIG_FILE)
    queries = _parse(root, QUERY_PLAN_FILE)
    metrics = _parse(root, METRICS_FILE)
    api = _parse(root, WIRE_FILE)
    spec_version, _ = _int_constant(runner, SPEC_VERSION_NAME, SPEC_FILE)
    wire_version, _ = _int_constant(api, WIRE_VERSION_NAME, WIRE_FILE)
    return {
        "spec_schema_version": spec_version,
        "spec": {
            "ExperimentSpec": _fields(
                _class_def(runner, "ExperimentSpec", SPEC_FILE), True
            ),
            "ScoopConfig": _fields(
                _class_def(config, "ScoopConfig", CONFIG_FILE), True
            ),
            "QueryPlanConfig": _fields(
                _class_def(queries, "QueryPlanConfig", QUERY_PLAN_FILE), True
            ),
            "ExperimentResult": _fields(
                _class_def(runner, "ExperimentResult", SPEC_FILE), False
            ),
            "TrialMetrics": _fields(
                _class_def(metrics, "TrialMetrics", METRICS_FILE), False
            ),
        },
        "protocol_version": wire_version,
        "wire": {
            name: _fields(_class_def(api, name, WIRE_FILE), False)
            for name in WIRE_CLASSES
        },
    }


def write_fingerprint(
    root: Path, path: Optional[Path] = None
) -> Dict[str, object]:
    """Recompute and commit the fingerprint; returns what was written."""
    fingerprint = compute_fingerprint(root)
    target = FINGERPRINT_PATH if path is None else path
    target.write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return fingerprint


class SchemaVersionRule(ProjectRule):
    """SCHEMA01 — fingerprinted schema surfaces only change alongside
    their version counter (and the committed fingerprint)."""

    rule_id = "SCHEMA01"
    description = (
        "ExperimentSpec/ScoopConfig/QueryPlanConfig/TrialMetrics/"
        "wire-dataclass changes require a SPEC_SCHEMA_VERSION / "
        "PROTOCOL_VERSION bump"
    )

    def __init__(self, fingerprint_path: Optional[Path] = None):
        self.fingerprint_path = (
            FINGERPRINT_PATH if fingerprint_path is None else fingerprint_path
        )

    def check_project(self, root: Path) -> Iterator[Finding]:
        try:
            current = compute_fingerprint(root)
        except (OSError, LookupError, SyntaxError) as exc:
            yield Finding(
                path=SPEC_FILE,
                line=1,
                rule=self.rule_id,
                message=f"cannot compute schema fingerprint: {exc}",
            )
            return
        if not self.fingerprint_path.is_file():
            yield Finding(
                path=SPEC_FILE,
                line=1,
                rule=self.rule_id,
                message=(
                    "no committed schema fingerprint; run `python -m "
                    "repro.analysis --write-schema-fingerprint`"
                ),
            )
            return
        committed = json.loads(self.fingerprint_path.read_text(encoding="utf-8"))

        runner = _parse(root, SPEC_FILE)
        api = _parse(root, WIRE_FILE)
        _, spec_line = _int_constant(runner, SPEC_VERSION_NAME, SPEC_FILE)
        _, wire_line = _int_constant(api, WIRE_VERSION_NAME, WIRE_FILE)

        yield from self._check_surface(
            surface="spec",
            version_key="spec_schema_version",
            version_name=SPEC_VERSION_NAME,
            anchor=(SPEC_FILE, spec_line),
            current=current,
            committed=committed,
        )
        yield from self._check_surface(
            surface="wire",
            version_key="protocol_version",
            version_name=WIRE_VERSION_NAME,
            anchor=(WIRE_FILE, wire_line),
            current=current,
            committed=committed,
        )

    def _check_surface(
        self,
        surface: str,
        version_key: str,
        version_name: str,
        anchor: Tuple[str, int],
        current: Dict[str, object],
        committed: Dict[str, object],
    ) -> Iterator[Finding]:
        path, line = anchor
        fields_changed = current.get(surface) != committed.get(surface)
        version_changed = current.get(version_key) != committed.get(version_key)
        if fields_changed and not version_changed:
            changed = _changed_classes(
                committed.get(surface) or {}, current.get(surface) or {}
            )
            yield Finding(
                path=path,
                line=line,
                rule=self.rule_id,
                message=(
                    f"schema surface changed ({', '.join(changed)}) without "
                    f"a {version_name} bump; bump it, then refresh the "
                    "fingerprint with --write-schema-fingerprint"
                ),
            )
        elif fields_changed or version_changed:
            yield Finding(
                path=path,
                line=line,
                rule=self.rule_id,
                message=(
                    f"{version_name} (or its schema surface) moved but the "
                    "committed fingerprint is stale; run `python -m "
                    "repro.analysis --write-schema-fingerprint` in the same "
                    "tree"
                ),
            )


def _changed_classes(
    old: Dict[str, object], new: Dict[str, object]
) -> List[str]:
    names = sorted(set(old) | set(new))
    return [n for n in names if old.get(n) != new.get(n)] or ["<unknown>"]
