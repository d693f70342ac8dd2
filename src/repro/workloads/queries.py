"""Query workload generation.

The paper's default query workload (Section 6): "The basestation issues a
query once every 15 seconds over 1-5% of the attribute's value domain (the
query width)." Figure 4 varies the *percentage of nodes queried* instead,
which maps to the paper's node-list query form (Section 5.5).

Generators are deterministic given their RNG and draw query centers
uniformly over the queried attribute's domain, as the paper does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

from repro.core.config import (
    ValueDomain,
    dataclass_from_dict,
    dataclass_to_dict,
)
from repro.core.query import Query


@dataclass
class QueryPlanConfig:
    """Shape of the query stream an experiment issues."""

    #: "value" -> value-range queries; "nodes" -> node-list queries.
    kind: str = "value"
    #: width of value queries as a fraction of the domain (lo, hi).
    width_frac: Tuple[float, float] = (0.01, 0.05)
    #: fraction of sensor nodes named by node-list queries.
    node_frac: float = 0.10
    #: how far back in time queries look, in seconds.
    time_window: float = 240.0
    #: attributes the stream cycles over (E15): queries round-robin
    #: attribute ids 0..n_attributes-1, so every attribute sees the same
    #: per-attribute query rate. 1 = the paper's single-attribute stream.
    n_attributes: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("value", "nodes"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if not 0 < self.node_frac <= 1:
            raise ValueError("node_frac must be in (0, 1]")
        if self.n_attributes < 1:
            raise ValueError("n_attributes must be >= 1")

    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`.

        Generic field enumeration, so future fields automatically enter
        the canonical spec key — a hand-written dict would silently keep
        serving stale cached results when a field is added.
        """
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "QueryPlanConfig":
        return dataclass_from_dict(cls, data)


class QueryGenerator:
    """Draws queries per a :class:`QueryPlanConfig`.

    ``attribute_domains`` lists the deployment's per-attribute domains
    (attribute 0 first). Attribute selection is a deterministic
    round-robin over the plan's ``n_attributes``, so a k-attribute stream
    queries each attribute at the same rate and the value-range draw
    consumes identical RNG stream positions regardless of which attribute
    a query lands on.
    """

    def __init__(
        self,
        plan: QueryPlanConfig,
        attribute_domains: Sequence[ValueDomain],
        sensor_ids: Sequence[int],
        rng: random.Random,
    ):
        self.plan = plan
        self.attribute_domains = list(attribute_domains)
        self.sensor_ids = list(sensor_ids)
        self.rng = rng
        if len(self.attribute_domains) < plan.n_attributes:
            raise ValueError(
                f"plan names {plan.n_attributes} attributes but only "
                f"{len(self.attribute_domains)} domains are configured"
            )
        self._issued = 0

    def value_range(self, attr: int = 0) -> Tuple[int, int]:
        domain = self.attribute_domains[attr]
        lo_frac, hi_frac = self.plan.width_frac
        width = max(1, round(self.rng.uniform(lo_frac, hi_frac) * domain.size))
        center = self.rng.randint(domain.lo, domain.hi)
        lo = max(domain.lo, center - width // 2)
        hi = min(domain.hi, lo + width - 1)
        lo = max(domain.lo, hi - width + 1)
        return lo, hi

    def node_set(self) -> FrozenSet[int]:
        count = max(1, round(self.plan.node_frac * len(self.sensor_ids)))
        return frozenset(
            self.rng.sample(self.sensor_ids, min(count, len(self.sensor_ids)))
        )

    def next_query(self, now: float) -> Query:
        t_lo = max(0.0, now - self.plan.time_window)
        attr = self._issued % self.plan.n_attributes
        self._issued += 1
        if self.plan.kind == "nodes":
            return Query(
                time_range=(t_lo, now),
                node_list=self.node_set(),
                attr=attr,
                domain=self.attribute_domains[attr],
            )
        return Query(
            time_range=(t_lo, now),
            value_range=self.value_range(attr),
            attr=attr,
            domain=self.attribute_domains[attr],
        )
