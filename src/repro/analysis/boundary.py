"""BND01 — declarative import boundaries between packages.

A boundary says: outside code may import only these names, and only from
these submodules; these internal type names must not appear at all (not
even via attribute access). The first boundary is ``repro.service`` —
the rule generalizes the ad-hoc AST walk that used to live in
``tests/unit/test_api_boundary.py`` — and a new boundary (e.g. around
``repro.experiments`` internals) is one :class:`BoundaryConfig` block
away.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.analysis.core import FileContext, Finding, Rule


@dataclass(frozen=True)
class BoundaryConfig:
    """One package's public surface, declaratively."""

    #: dotted package the boundary protects (``repro.service``).
    package: str
    #: the only names importable from the package (or its public
    #: submodules) by outside code.
    public_names: FrozenSet[str]
    #: submodules outside code may import *from*; everything else is
    #: internal plumbing.
    public_submodules: FrozenSet[str]
    #: internal type names that must not be referenced outside the
    #: package at all — belt and braces against attribute-access leaks.
    internal_names: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def package_dir(self) -> str:
        """Repo-relative directory of the package (its own files are
        exempt — the boundary binds outsiders only)."""
        return "src/" + self.package.replace(".", "/")


#: The serving API boundary (PR 8): the typed request/response vocabulary
#: of ``repro.service.api`` plus the supported entry points. Internal
#: plumbing — tickets, serving fronts, window executors, caches, frame
#: structs — stays in.
SERVICE_BOUNDARY = BoundaryConfig(
    package="repro.service",
    public_names=frozenset(
        {
            # typed API (repro.service.api)
            "PROTOCOL_VERSION",
            "QueryRequest",
            "QueryAnswer",
            "ServiceError",
            "ServiceStats",
            "ServiceFault",
            "ShedError",
            "MalformedRequestError",
            "ProtocolVersionError",
            "ProtocolError",
            "ServiceUnavailableError",
            "ShardRestartingError",
            "aggregate_shard_stats",
            # entry points
            "AsyncScoopClient",
            "ScoopServer",
            "serve_framed",
            "ShardedGateway",
            "BackoffPolicy",
            "ServiceLimits",
            "Deployment",
            # load drivers
            "build_arrivals",
            "drive_load",
            "drive_socket_load",
            "build_client_program",
            "answers_digest",
        }
    ),
    public_submodules=frozenset(
        {
            "repro.service",
            "repro.service.api",
            "repro.service.client",
            "repro.service.deployment",
            "repro.service.loadtest",
            "repro.service.server",
            "repro.service.shard",
        }
    ),
    internal_names=frozenset(
        {"ServiceTicket", "ServingFront", "TenantService", "AnswerCache", "run_window"}
    ),
)

#: Every boundary the checker enforces. Adding a package boundary means
#: appending a config here (and nothing else).
BOUNDARIES: Tuple[BoundaryConfig, ...] = (SERVICE_BOUNDARY,)


class ImportBoundaryRule(Rule):
    """BND01 — only a boundary's public names cross it.

    Applies to every scanned file outside the protected package (tests
    are not scanned by the default CLI invocation: they white-box
    internals on purpose).
    """

    rule_id = "BND01"
    description = "package-internal names never cross a declared API boundary"
    scope = ()  # every scanned file, minus the package's own

    def __init__(
        self,
        config: BoundaryConfig = SERVICE_BOUNDARY,
        scope: Optional[Sequence[str]] = None,
    ):
        super().__init__(scope)
        self.config = config

    def applies_to(self, rel: str) -> bool:
        if rel == self.config.package_dir or rel.startswith(
            self.config.package_dir + "/"
        ):
            return False
        return super().applies_to(rel)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        cfg = self.config
        prefix = cfg.package
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _touches(alias.name, prefix):
                        yield ctx.finding(
                            self.rule_id,
                            node.lineno,
                            f"whole-module import of {alias.name!r}: attribute "
                            "access is unchecked; import the public names "
                            f"from {prefix!r} instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if not _touches(module, prefix):
                    continue
                if module not in cfg.public_submodules:
                    yield ctx.finding(
                        self.rule_id,
                        node.lineno,
                        f"import from internal module {module!r}; the public "
                        f"surface is {sorted(cfg.public_submodules)}",
                    )
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        yield ctx.finding(
                            self.rule_id,
                            node.lineno,
                            f"star import from {module!r} defeats the "
                            "boundary check; import the public names",
                        )
                    elif alias.name not in cfg.public_names:
                        yield ctx.finding(
                            self.rule_id,
                            node.lineno,
                            f"{alias.name!r} is not part of the public "
                            f"{prefix} API",
                        )
        yield from self._internal_name_scan(ctx)

    def _internal_name_scan(self, ctx: FileContext) -> Iterator[Finding]:
        forbidden = self.config.internal_names
        if not forbidden:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and node.id in forbidden:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    f"internal type {node.id!r} referenced outside "
                    f"{self.config.package}",
                )
            elif isinstance(node, ast.Attribute) and node.attr in forbidden:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    f"internal type {node.attr!r} reached via attribute "
                    f"access outside {self.config.package}",
                )


def _touches(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")
