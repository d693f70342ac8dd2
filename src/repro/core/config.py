"""Scoop system configuration with the paper's default parameters.

Every default in :class:`ScoopConfig` is taken from the paper's experiment
table (Section 6) or the inline parameter values the text mentions; the
docstring on each field cites the source. The config holds only what some
experiment varies; the parameters the paper fixes sit with their readers.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.messages import bitmap_wire_bytes


def dataclass_to_dict(obj) -> Dict[str, object]:
    """Generic dataclass → JSON-ready dict.

    Nested objects exposing ``to_dict`` recurse; tuples become lists.
    Field enumeration is automatic, so fields added later flow into the
    canonical cache key without touching serialization code (pair with
    :func:`dataclass_from_dict`, which restores tuple-typed fields from
    the class's type hints).
    """
    out: Dict[str, object] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


@functools.lru_cache(maxsize=None)
def _tuple_fields(cls) -> frozenset:
    return frozenset(
        name
        for name, hint in typing.get_type_hints(cls).items()
        if typing.get_origin(hint) is tuple
    )


def dataclass_from_dict(
    cls,
    data: Dict[str, object],
    converters: Optional[Dict[str, Callable]] = None,
):
    """Inverse of :func:`dataclass_to_dict`.

    ``converters`` maps field names to value converters (for nested
    dataclasses); every other list-valued field declared as a tuple is
    restored to a tuple automatically.
    """
    tuple_fields = _tuple_fields(cls)
    kwargs: Dict[str, object] = {}
    for name, value in data.items():
        if converters and name in converters:
            value = converters[name](value)
        elif name in tuple_fields and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def canonical_key(payload: object) -> str:
    """SHA-256 over the canonical JSON form of ``payload``.

    The canonical form (sorted keys, minimal separators, ASCII) is stable
    across processes and Python versions, unlike ``repr`` of nested
    dataclasses — this is what keys the persistent experiment-result
    cache, so two processes computing a key for the same spec must agree
    byte-for-byte.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ValueDomain:
    """Integer domain of an indexed attribute.

    The paper's REAL trace has ~150 distinct values ("V was at about 150");
    the synthetic sources use [0, 100].
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def clamp(self, value: int) -> int:
        return max(self.lo, min(self.hi, int(value)))

    def index_of(self, value: int) -> int:
        if value not in self:
            raise ValueError(f"value {value} outside domain [{self.lo}, {self.hi}]")
        return value - self.lo

    def to_dict(self) -> Dict[str, int]:
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ValueDomain":
        return cls(lo=int(data["lo"]), hi=int(data["hi"]))


@dataclass(frozen=True)
class AttributeSpec:
    """One named, indexable sensor attribute and its value domain.

    The paper's Section 5.5 query model is one attribute per index; the
    motivating deployments sample several (temperature, light, humidity).
    A deployment's attribute registry (:attr:`ScoopConfig.attributes`)
    names each concurrently indexed attribute; attribute ids are the
    registry positions, so attribute 0 is always the legacy single
    attribute of the paper's experiments.
    """

    name: str
    domain: ValueDomain

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute needs a non-empty name")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "domain": self.domain.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AttributeSpec":
        return cls(
            name=str(data["name"]), domain=ValueDomain.from_dict(data["domain"])
        )


def _attribute_specs_from_list(items) -> Tuple[AttributeSpec, ...]:
    return tuple(
        item if isinstance(item, AttributeSpec) else AttributeSpec.from_dict(item)
        for item in items
    )


@dataclass
class ScoopConfig:
    """The tunables of a Scoop deployment that some experiment varies,
    defaulted to the paper's values.

    The parameters the paper fixes and no experiment varies (the
    histogram's 10 bins, the 30-reading recent ring, 12 summary
    neighbours, batches of 5, the 32-entry neighbour and descendant
    lists, the flash capacity, Trickle's bounds, the query gossip and
    the index tie tolerance) are not settable: each is stated once, as
    the default of the component that uses it or as a named constant
    beside its one reader.
    """

    # -- workload timing (paper experiment table) ------------------------
    #: Seconds between sensor samples ("sample rate: 1 in 15 seconds").
    sample_interval: float = 15.0
    #: Seconds between queries ("query rate: 1 in 15 seconds").
    query_interval: float = 15.0
    #: Seconds between summary messages ("summary rate: 1 in 110 seconds").
    summary_interval: float = 110.0
    #: Seconds between storage-index recomputations ("remap rate: 1 in 240").
    remap_interval: float = 240.0
    #: Measured experiment duration ("duration: 40 minutes").
    duration: float = 2400.0
    #: Tree-stabilization warm-up before sampling starts ("The first 10
    #: minutes are spent stabilizing the network").
    stabilization: float = 600.0

    # -- network sizing ---------------------------------------------------
    #: Nodes including the basestation ("size: 62 nodes + 1 base").
    n_nodes: int = 63
    #: Query bitmap capacity ("an upper bound to the size of the sensor
    #: network; 128 nodes in our current implementation"). Raise it to run
    #: networks past the paper's testbed — every query then carries a
    #: proportionally wider bitmap (:attr:`query_bitmap_bytes`).
    max_network_size: int = 128

    # -- data / statistics ------------------------------------------------
    #: Attribute domain (REAL trace: ~150 values; synthetic: [0, 100]).
    #: This is always attribute 0's domain (the paper's single attribute).
    domain: ValueDomain = field(default_factory=lambda: ValueDomain(0, 100))
    #: Multi-attribute registry (E15). Empty = the legacy single-attribute
    #: deployment: one implicit attribute named "value" over ``domain``.
    #: When set, entry 0 must agree with ``domain`` (attribute 0 *is* the
    #: legacy attribute; everything single-attribute-shaped keeps reading
    #: ``domain``), and each further entry adds a concurrently indexed
    #: attribute with its own domain, histogram statistics, storage index
    #: and summary stream.
    attributes: Tuple[AttributeSpec, ...] = ()
    #: Summary intervals of silence after which the basestation treats a
    #: node as dead: stale nodes stop being index-owner candidates and
    #: their ranges are reassigned at the next remap (the Section 6
    #: recovery story for failed nodes). ~40% of summaries are lost in
    #: the paper's testbed, so the default tolerates several consecutive
    #: losses before declaring death; churn scenarios tighten it.
    node_staleness_intervals: float = 6.0

    # -- data routing -----------------------------------------------------
    #: Seconds a partially filled batch may wait before being flushed. The
    #: paper flushes only on owner change or a full batch; the timeout is a
    #: liveness backstop and must exceed the batch size
    #: (:data:`repro.core.node.BATCH_SIZE`) times ``sample_interval`` or it
    #: defeats batching entirely.
    batch_flush_timeout: float = 120.0

    # -- queries ------------------------------------------------------------
    #: How long the basestation keeps a query open for replies (the paper:
    #: "it takes several seconds for the first replies to come back"; with
    #: staggered answers and per-hop retransmission backoff, stragglers
    #: arrive close to 15 s).
    query_reply_window: float = 20.0

    # -- index construction -------------------------------------------------
    #: Whether the basestation may fall back to a store-local policy when
    #: that is cheaper (Section 4). The paper's SCOOP experiments disable
    #: this ("the optimization ... has been disabled") so the figures
    #: measure the index itself.
    allow_store_local_fallback: bool = False
    #: Index extension: maximum owners per value (1 = paper's default
    #: algorithm; >1 enables the owner-set extension of Section 4).
    max_owners_per_value: int = 1
    #: Index extension: place fixed-width ranges instead of single values
    #: (0 = per-value placement, the paper's default).
    range_placement_width: int = 0

    # -- protocol timing ----------------------------------------------------
    beacon_interval: float = 10.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least a basestation and one sensor")
        if self.max_network_size < 2:
            raise ValueError("max_network_size must be >= 2")
        if self.n_nodes > self.max_network_size:
            raise ValueError(
                f"{self.n_nodes} nodes exceeds the {self.max_network_size}-node "
                "query bitmap; raise max_network_size to widen it"
            )
        if self.node_staleness_intervals <= 0:
            raise ValueError("node_staleness_intervals must be positive")
        if self.attributes:
            names = [spec.name for spec in self.attributes]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate attribute names in {names}")
            if self.attributes[0].domain != self.domain:
                raise ValueError(
                    "attributes[0] is the legacy attribute and must share "
                    f"`domain` ({self.domain}); got {self.attributes[0].domain}"
                )

    # -- attribute registry ------------------------------------------------
    @property
    def attribute_specs(self) -> Tuple[AttributeSpec, ...]:
        """The live registry: ``attributes``, or the implicit legacy
        single attribute over ``domain``."""
        if self.attributes:
            return self.attributes
        return (AttributeSpec("value", self.domain),)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_specs)

    @property
    def attribute_ids(self) -> range:
        return range(self.n_attributes)

    def domain_of(self, attr: int) -> ValueDomain:
        """Value domain of attribute id ``attr`` (0 = the legacy one)."""
        specs = self.attribute_specs
        if not 0 <= attr < len(specs):
            raise ValueError(
                f"attribute id {attr} outside registry of {len(specs)}"
            )
        return specs[attr].domain

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        out = dataclass_to_dict(self)
        out["attributes"] = [spec.to_dict() for spec in self.attributes]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScoopConfig":
        return dataclass_from_dict(
            cls,
            data,
            converters={
                "domain": ValueDomain.from_dict,
                "attributes": _attribute_specs_from_list,
            },
        )

    @property
    def query_bitmap_bytes(self) -> int:
        """Wire width of the query node bitmap: one bit per addressable
        node, so ``ceil(max_network_size / 8)`` bytes.

        The paper's 128-node implementation fixes this at 16 bytes; here
        it is derived, so a 256-node deployment automatically prices its
        queries with a 32-byte bitmap across every policy.
        """
        return bitmap_wire_bytes(self.max_network_size)

    @property
    def basestation_id(self) -> int:
        """The basestation is always node 0 in this implementation."""
        return 0

    @property
    def sensor_ids(self) -> range:
        return range(1, self.n_nodes)
