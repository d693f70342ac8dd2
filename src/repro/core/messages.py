"""Scoop application-message payloads and their wire sizes.

Five message families (Sections 5.2-5.5 of the paper):

* :class:`SummaryMessage` — node -> basestation statistics: the node's
  best-connected neighbors sorted by link quality, and per attribute a
  coarse histogram over recent data, the lowest/highest/sum of recent
  values and the ID of the last complete storage index the node holds;
* :class:`MappingChunk` — one piece of a storage index, a list of
  ``(value-range, owner)`` entries, disseminated by Trickle;
* :class:`DataMessage` — readings routed to their owner, carrying the
  paper's three routing fields: the data, the owner ``o`` and the storage
  index ID ``sid`` that chose it (both rewritable in flight by nodes with a
  newer index);
* :class:`QueryMessage` — a query flooded selectively with a node bitmap;
* :class:`ReplyMessage` — matching tuples routed back up the tree.

Wire sizes are estimates of a compact C layout and cap at the TinyOS
payload; they drive airtime and the energy model. One wire rule keeps a
one-attribute deployment on the paper's layout: attribute 0's summary
block and the chunks of a one-attribute mapping epoch carry no attribute
id (nor, for chunks, a per-attribute index id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.histogram import Histogram

#: (value, timestamp, producer) — one sensor reading on the wire.
WireReading = Tuple[int, float, int]

#: Bytes per reading inside data/reply messages: 12-bit value + timestamp
#: + producer id, packed.
READING_WIRE_BYTES = 4

#: Bytes per (lo, hi, owner) entry in a mapping chunk.
MAPPING_ENTRY_BYTES = 5

#: Query bitmap width of the paper's implementation (128 nodes / 8). The
#: live width is derived from the deployment's configured capacity —
#: :func:`bitmap_wire_bytes` / ``ScoopConfig.query_bitmap_bytes`` — and
#: this constant is only the default for messages built without one.
DEFAULT_BITMAP_BYTES = 16


def bitmap_wire_bytes(capacity: int) -> int:
    """Bytes of a node bitmap addressing ``capacity`` nodes (one bit
    each, rounded up to whole bytes)."""
    if capacity < 1:
        raise ValueError(f"bitmap capacity must be >= 1, got {capacity}")
    return (capacity + 7) // 8

#: Entries that fit in one mapping chunk given the TinyOS payload.
MAX_ENTRIES_PER_CHUNK = 5


@dataclass(frozen=True)
class AttributeSummary:
    """One attribute's statistics block inside a summary message.

    A node packs one block per registered attribute into its periodic
    summary instead of sending k separate messages — a block costs bytes,
    not packets, which is what keeps Scoop's maintenance cost sublinear
    in the attribute count (E15).
    """

    attr: int
    histogram: Optional[Histogram]
    min_value: int
    max_value: int
    sum_values: int
    #: ID of the last complete storage index held for this attribute.
    last_sid: int

    def wire_bytes(self) -> int:
        hist = self.histogram.wire_bytes() if self.histogram else 0
        # attr id + min/max/sum + sid
        return 1 + hist + 8 + 2


@dataclass(frozen=True)
class SummaryMessage:
    """Periodic per-node statistics report (Section 5.2)."""

    origin: int
    #: number of readings taken since the previous summary (lets the
    #: basestation estimate this node's data rate; attributes are sampled
    #: together, so one count covers every attribute).
    readings_since_last: int
    #: best-connected neighbors as (node, quality), sorted by quality desc.
    neighbors: Tuple[Tuple[int, float], ...]
    #: one block per registered attribute, attribute 0 first.
    blocks: Tuple[AttributeSummary, ...]

    def wire_bytes(self) -> int:
        # attribute 0's block omits its attribute-id byte (the wire rule
        # in the module docstring)
        blocks = sum(block.wire_bytes() for block in self.blocks)
        return 2 * len(self.neighbors) + blocks - 1


@dataclass(frozen=True)
class MappingChunk:
    """One Trickle-disseminated piece of a storage index (Section 5.3).

    ``sid`` is the *dissemination epoch* — the version the Trickle state
    machine tracks. A multi-attribute epoch (E15) bundles one chunk run
    per attribute into a single dissemination wave, so each of its
    chunks also names its attribute and that attribute's own index id
    (``attr_sid`` — "shared epoch, per-attribute index ids"). A
    one-attribute epoch's chunks omit both: the epoch is the index id.
    """

    sid: int
    index: int
    total: int
    #: compacted entries: (value_lo, value_hi, owner)
    entries: Tuple[Tuple[int, int, int], ...]
    #: attribute this chunk's entries map (one attribute per chunk).
    attr: int = 0
    #: the attribute's storage-index id; -1 = same as the epoch ``sid``
    #: (an untagged chunk of a one-attribute epoch).
    attr_sid: int = -1

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.total:
            raise ValueError(f"chunk index {self.index} outside 0..{self.total - 1}")

    @property
    def index_sid(self) -> int:
        """The storage-index id these entries belong to."""
        return self.sid if self.attr_sid < 0 else self.attr_sid

    def wire_bytes(self) -> int:
        # a tagged chunk spends 3 extra bytes on the attribute id and
        # its index id; an untagged one omits both.
        tagged = 3 if (self.attr or self.attr_sid >= 0) else 0
        return 4 + tagged + MAPPING_ENTRY_BYTES * len(self.entries)


@dataclass
class DataMessage:
    """A batch of readings en route to their owner (Section 5.4).

    ``owner`` and ``sid`` may be overwritten in flight by any node holding
    a storage index newer than ``sid`` (routing rule 1); ``hops`` is the
    loop-protection budget; ``force_base`` marks a packet that exhausted its
    budget and now simply climbs the tree to be stored at the root.
    """

    readings: List[WireReading]
    owner: int
    sid: int
    hops: int = 0
    force_base: bool = False
    #: attribute id of every reading in this batch (one attribute per
    #: message; the owner was chosen by that attribute's index).
    attr: int = 0

    def wire_bytes(self) -> int:
        # single-attribute deployments use the paper's wire format (no
        # attribute field); non-zero attributes spend one byte on the id.
        return 5 + (1 if self.attr else 0) + READING_WIRE_BYTES * len(self.readings)


@dataclass(frozen=True)
class QueryMessage:
    """A query disseminated with a node bitmap (Section 5.5)."""

    query_id: int
    #: nodes that must answer (the packet's header bitmap).
    bitmap: FrozenSet[int]
    time_range: Tuple[float, float]
    #: inclusive value range, or None for node-list queries.
    value_range: Optional[Tuple[int, int]]
    issued_at: float
    #: for node-list queries: only readings produced by these nodes match.
    #: (Distinct from ``bitmap``: under LOCAL the flood must reach every
    #: node, but only the listed producers' data is wanted.)
    node_filter: Optional[FrozenSet[int]] = None
    #: wire width of the node bitmap(s), derived from the deployment's
    #: configured capacity (``ScoopConfig.query_bitmap_bytes``): 16 bytes
    #: for the paper's 128-node implementation, 32 at 256 nodes.
    bitmap_bytes: int = DEFAULT_BITMAP_BYTES
    #: attribute the query targets.
    attr: int = 0

    def __post_init__(self) -> None:
        limit = self.bitmap_bytes * 8
        widest = max(self.bitmap | (self.node_filter or frozenset()), default=0)
        if widest >= limit:
            raise ValueError(f"node {widest} does not fit a {limit}-bit query bitmap")

    def wire_bytes(self) -> int:
        # node bitmap + qid + time range + value range (+ filter bitmap,
        # same width) (+ attribute id for attributes other than 0)
        return (
            self.bitmap_bytes
            + 2
            + 8
            + 4
            + (self.bitmap_bytes if self.node_filter is not None else 0)
            + (1 if self.attr else 0)
        )

    def matches(self, value: int, timestamp: float, producer: int = -1) -> bool:
        t_lo, t_hi = self.time_range
        if not t_lo <= timestamp <= t_hi:
            return False
        if self.node_filter is not None and producer not in self.node_filter:
            return False
        if self.value_range is None:
            return True
        v_lo, v_hi = self.value_range
        return v_lo <= value <= v_hi


@dataclass
class ReplyMessage:
    """One fragment of a node's answer to a query (Section 5.5).

    A node replies even when nothing matched ("sends a reply—even if no
    tuples matched the query"); ``fragment``/``total_fragments`` let large
    answers span several packets.
    """

    query_id: int
    origin: int
    readings: List[WireReading]
    fragment: int = 0
    total_fragments: int = 1

    def wire_bytes(self) -> int:
        return 5 + READING_WIRE_BYTES * len(self.readings)
