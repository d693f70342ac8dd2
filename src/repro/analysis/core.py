"""Framework of the repo-specific invariant checker.

The checker is a plugin-based AST lint pass: a :class:`Rule` inspects one
parsed file at a time (or, for project rules, the whole tree at once) and
yields :class:`Finding` records — rule id, repo-relative path, line,
message. The engine (:func:`run_analysis`) walks the requested paths,
applies every rule whose scope covers the file, and filters findings
through inline suppression pragmas:

    some_call()  # repro: allow[DET02] reason why this one is fine

A pragma only suppresses when it names the finding's rule id *and*
carries a non-empty reason — a bare ``allow[DET02]`` is ignored, so the
finding stays red until the author writes down why. Pragmas work on the
finding's own line or on a comment line directly above it.

Rules are deliberately dumb AST walks, not data-flow analyses: every
invariant here (seeded RNG streams, no wall clock in simulated paths,
``__slots__`` on hot state, schema-version discipline, the service API
boundary) is checkable from syntax alone, which keeps the checker fast
enough to gate CI and simple enough to trust.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Repository root, derived from this package's location in the source
#: tree (``src/repro/analysis`` -> three levels up).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Inline suppression: ``# repro: allow[RULE-ID] reason``. The reason is
#: mandatory — the capture must be non-empty for the pragma to count.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_\-, ]+)\]\s*(?P<reason>\S.*)?"
)

#: Rule id reserved for files the checker cannot parse.
PARSE_RULE_ID = "PARSE"


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at a specific source location."""

    path: str  #: repo-relative posix path
    line: int  #: 1-indexed line number
    rule: str  #: rule id (``DET01``, ``BND01``, ...)
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"


class FileContext:
    """One file under analysis: source text, parsed AST, pragma table."""

    def __init__(self, path: Path, root: Path = REPO_ROOT):
        self.path = path
        self.root = root
        resolved = path.resolve()
        try:
            self.rel = resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            self.rel = resolved.as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self._tree: Optional[ast.Module] = None
        self._pragmas: Optional[Dict[int, Set[str]]] = None

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    def finding(self, rule: str, line: int, message: str) -> Finding:
        return Finding(path=self.rel, line=line, rule=rule, message=message)

    @property
    def pragmas(self) -> Dict[int, Set[str]]:
        """line number -> rule ids allowed there (reason-carrying pragmas
        only)."""
        if self._pragmas is None:
            table: Dict[int, Set[str]] = {}
            for lineno, text in enumerate(self.lines, start=1):
                match = PRAGMA_RE.search(text)
                if match is None or not match.group("reason"):
                    continue
                rules = {
                    part.strip()
                    for part in match.group("rules").split(",")
                    if part.strip()
                }
                if rules:
                    table[lineno] = rules
            self._pragmas = table
        return self._pragmas

    def suppressed(self, finding: Finding) -> bool:
        """True when a pragma on the finding's line (or the line directly
        above it) allows the finding's rule."""
        for lineno in (finding.line, finding.line - 1):
            if finding.rule in self.pragmas.get(lineno, set()):
                return True
        return False


class Rule:
    """Base of every per-file rule.

    Subclasses set ``rule_id``/``description``/``scope`` and implement
    :meth:`check`. ``scope`` is a tuple of repo-relative path prefixes
    (a directory, or an exact ``.py`` file); empty scope means every
    scanned file. Constructors accept a ``scope`` override so tests can
    point a rule at fixture trees.
    """

    rule_id: str = "RULE"
    description: str = ""
    scope: Tuple[str, ...] = ()

    def __init__(self, scope: Optional[Sequence[str]] = None):
        if scope is not None:
            self.scope = tuple(scope)

    def applies_to(self, rel: str) -> bool:
        if not self.scope:
            return True
        for prefix in self.scope:
            clean = prefix.rstrip("/")
            if rel == clean or rel.startswith(clean + "/"):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base of rules that inspect the whole tree at once (not one file).

    Project rules anchor their findings to specific files, but their
    input is cross-file state (e.g. a committed schema fingerprint), so
    the engine runs them exactly once per analysis instead of per file.
    """

    rule_id: str = "RULE"
    description: str = ""

    def check_project(self, root: Path) -> Iterable[Finding]:
        raise NotImplementedError


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files,
    skipping ``__pycache__`` litter."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            for found in path.rglob("*.py"):
                if "__pycache__" not in found.parts:
                    out.add(found)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def run_analysis(
    paths: Sequence[Path],
    rules: Sequence[object],
    root: Path = REPO_ROOT,
) -> List[Finding]:
    """Run every rule over every scanned file; return surviving findings.

    Per-file rules run on files their scope covers; project rules run
    once against ``root``. Pragma suppression applies to both (a project
    finding is suppressed by a pragma at its anchor line, when the anchor
    file is readable).
    """
    file_rules = [r for r in rules if isinstance(r, Rule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    findings: List[Finding] = []
    contexts: Dict[str, FileContext] = {}
    for path in iter_python_files(paths):
        ctx = FileContext(path, root=root)
        contexts[ctx.rel] = ctx
        applicable = [r for r in file_rules if r.applies_to(ctx.rel)]
        if not applicable:
            continue
        try:
            ctx.tree
        except SyntaxError as exc:
            findings.append(
                ctx.finding(
                    PARSE_RULE_ID,
                    exc.lineno or 1,
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in applicable:
            for finding in rule.check(ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)

    for project_rule in project_rules:
        for finding in project_rule.check_project(root):
            ctx = contexts.get(finding.path)
            if ctx is None:
                anchor = root / finding.path
                if anchor.is_file():
                    ctx = FileContext(anchor, root=root)
                    contexts[finding.path] = ctx
            if ctx is not None and ctx.suppressed(finding):
                continue
            findings.append(finding)

    return sorted(findings)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import random`` -> ``{"random": "random"}``; ``import a.b as c`` ->
    ``{"c": "a.b"}``; ``from time import perf_counter as pc`` ->
    ``{"pc": "time.perf_counter"}``. Relative imports are skipped (they
    cannot name a stdlib module).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain rooted at an imported name into its
    dotted form (``datetime.now`` under ``from datetime import datetime``
    -> ``"datetime.datetime.now"``). None when the root is not a tracked
    import (locals, ``self.rng`` etc. resolve to nothing on purpose)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))
