"""User-facing query objects and results (Section 5.5).

A query names an attribute (``attr``, id 0 being the paper's single
implicit attribute), a time range, and either a value range or an explicit
node list ("Alternatively, a user can query values from one or more
specific nodes, in which case the query just specifies a time range and
the list of nodes").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.config import ValueDomain
from repro.core.messages import WireReading

_query_ids = itertools.count(1)


def next_query_id() -> int:
    return next(_query_ids)


@dataclass(frozen=True)
class Query:
    """A snapshot query over stored data.

    Exactly one of ``value_range`` / ``node_list`` should be provided; a
    query with neither asks for everything in the time range. ``attr``
    names the queried attribute; ``domain``, when supplied (the query
    generator and the basestation both do), is that attribute's
    configured domain, and a ``value_range`` reaching outside it is
    rejected at construction — an out-of-domain bound is a malformed
    query, not an empty answer.
    """

    time_range: Tuple[float, float]
    value_range: Optional[Tuple[int, int]] = None
    node_list: Optional[FrozenSet[int]] = None
    query_id: int = field(default_factory=next_query_id)
    #: attribute the query targets (0 = the legacy single attribute).
    attr: int = 0
    #: the named attribute's configured domain, when known at build time.
    domain: Optional[ValueDomain] = None

    def __post_init__(self) -> None:
        t_lo, t_hi = self.time_range
        if t_hi < t_lo:
            raise ValueError("empty time range")
        if self.value_range is not None and self.node_list is not None:
            raise ValueError("specify a value range or a node list, not both")
        if self.value_range is not None and self.value_range[1] < self.value_range[0]:
            raise ValueError("empty value range")
        if self.node_list is not None and not self.node_list:
            raise ValueError("empty node list")
        if self.attr < 0:
            raise ValueError(f"attribute id must be >= 0, got {self.attr}")
        if self.domain is not None and self.value_range is not None:
            lo, hi = self.value_range
            if lo not in self.domain or hi not in self.domain:
                raise ValueError(
                    f"value range [{lo}, {hi}] outside attribute {self.attr}'s "
                    f"domain [{self.domain.lo}, {self.domain.hi}]"
                )


@dataclass
class QueryResult:
    """What came back for a query before its reply window closed."""

    query: Query
    #: deduplicated matching readings: (value, timestamp, producer).
    readings: List[WireReading] = field(default_factory=list)
    #: nodes the planner decided to contact over the radio.
    nodes_targeted: Set[int] = field(default_factory=set)
    #: nodes whose reply made it back.
    nodes_replied: Set[int] = field(default_factory=set)
    #: readings served from the basestation's own flash (no radio cost).
    local_readings: int = 0
    #: True when the whole answer came from summaries/local data.
    answered_locally: bool = False
    closed: bool = False

    @property
    def complete(self) -> bool:
        """Every targeted node replied (best-effort completeness signal)."""
        return self.nodes_targeted <= self.nodes_replied

    def add_readings(self, readings: Sequence[WireReading]) -> None:
        """Merge readings, dropping duplicates from retransmissions."""
        seen = {(t, p) for _v, t, p in self.readings}
        for value, timestamp, producer in readings:
            if (timestamp, producer) not in seen:
                seen.add((timestamp, producer))
                self.readings.append((value, timestamp, producer))
