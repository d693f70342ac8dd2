"""Performance rules: hot-path state stays slotted.

PR 6 bought a ~40% kernel speedup partly by moving per-event and
per-frame state into ``__slots__`` records; a later refactor that quietly
reintroduces ``__dict__``-backed attributes on those classes would erase
it without failing a single test. PERF01 makes the discipline a CI gate
for the designated hot modules.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.analysis.core import FileContext, Finding, Rule

#: Modules whose classes sit on the per-event / per-frame hot path.
HOT_MODULES: Tuple[str, ...] = (
    "src/repro/sim/kernel.py",
    "src/repro/sim/radio.py",
    "src/repro/sim/rngstream.py",
    "src/repro/sim/energy.py",
    "src/repro/sim/packets.py",
    "src/repro/sim/mote.py",
    "src/repro/sim/linkest.py",
    "src/repro/sim/trickle.py",
    "src/repro/sim/routing_tree.py",
    "src/repro/core/node.py",
)

#: Base-class names that exempt a class: protocols and enums have no
#: per-instance state worth slotting, exceptions are cold by definition.
_EXEMPT_BASES = frozenset(
    {
        "Protocol",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Exception",
        "BaseException",
        "NamedTuple",
    }
)


class SlotsRule(Rule):
    """PERF01 — every class in a designated hot module declares
    ``__slots__`` (directly or via ``@dataclass(slots=True)``).

    Protocols, enums and exception types are exempt; anything else needs
    slots, an entry in the allow list, or an inline
    ``# repro: allow[PERF01] reason`` on its ``class`` line.
    """

    rule_id = "PERF01"
    description = "classes in hot modules declare __slots__"
    scope = HOT_MODULES

    def __init__(
        self,
        scope: Optional[Sequence[str]] = None,
        allow: FrozenSet[str] = frozenset(),
    ):
        super().__init__(scope)
        self.allow = frozenset(allow)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in self.allow:
                continue
            if self._is_exempt(node) or self._declares_slots(node):
                continue
            yield ctx.finding(
                self.rule_id,
                node.lineno,
                f"class {node.name} in a hot module has no __slots__; "
                "declare them (or @dataclass(slots=True)) to keep "
                "per-instance state off __dict__",
            )

    @staticmethod
    def _is_exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = _tail_name(base)
            if name is None:
                continue
            if name in _EXEMPT_BASES or name.endswith(("Error", "Exception")):
                return True
        return False

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _tail_name(decorator.func) != "dataclass":
                continue
            for kw in decorator.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
        return False


def _tail_name(node: ast.expr) -> Optional[str]:
    """Last segment of a name/attribute chain (``enum.IntEnum`` ->
    ``IntEnum``); None for subscripted or computed bases' roots."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        # Generic[C], Protocol[...] — classify by the subscripted name.
        return _tail_name(node.value)
    return None
