"""Basestation statistics: everything the indexing algorithm consumes.

Section 5.2 of the paper describes what the basestation learns and keeps:

* the **last histogram per node** — "the basestation always saves the last
  histogram it receives from each node, thus allowing it to reason about a
  node even if newer summary messages are lost" (~40% of summaries are lost
  in their experiments, so this matters);
* **every summary ever received** — "the basestation never discards any
  summary message", enabling historical query planning and summary-based
  query answering;
* **network topology**: neighbor link qualities from summary topology
  lists, plus parent/child relationships observed from Scoop's custom
  packet header on every packet that reaches the root;
* **query statistics** (Section 5.5): "for each query it issues, the
  basestation updates its statistics that keep track of the query rate, and
  which attributes and what value ranges get queried", yielding
  ``P(user queries v)`` and the query rate used by the indexing algorithm;
* **which storage index each node is using**, from the ``last_sid`` field
  of each attribute's summary block — needed to decide which indices may
  be active when planning a historical query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.messages import AttributeSummary, SummaryMessage


@dataclass
class NodeRecord:
    """The basestation's current knowledge about one node."""

    node: int
    last_summary_time: float = -1.0
    #: EWMA of readings per second.
    data_rate: float = 0.0


@dataclass
class AttrNodeRecord:
    """Per-(attribute, node) statistics: the attribute's latest summary
    block and which of that attribute's indexes the node reported using."""

    node: int
    last_block: Optional[AttributeSummary] = None
    last_time: float = -1.0
    #: (report_time, sid) history for this attribute's index stream.
    sid_history: List[Tuple[float, int]] = field(default_factory=list)


class QueryStatistics:
    """Tracks query rate and per-value query popularity."""

    def __init__(self, domain: ValueDomain):
        self.domain = domain
        self._value_counts = np.zeros(domain.size)
        self.total_queries = 0
        self.first_query_time: Optional[float] = None
        self.last_query_time: Optional[float] = None

    def record(self, value_range: Optional[Tuple[int, int]], now: float) -> None:
        self.total_queries += 1
        if self.first_query_time is None:
            self.first_query_time = now
        self.last_query_time = now
        if value_range is None:
            return
        lo = max(value_range[0], self.domain.lo)
        hi = min(value_range[1], self.domain.hi)
        if hi >= lo:
            self._value_counts[lo - self.domain.lo : hi - self.domain.lo + 1] += 1.0

    def query_rate(self, now: float) -> float:
        """Queries per second over the observed query history."""
        if self.total_queries == 0 or self.first_query_time is None:
            return 0.0
        elapsed = max(now - self.first_query_time, 1.0)
        return self.total_queries / elapsed

    def probability_vector(self) -> np.ndarray:
        """P(user queries v) for every v in the domain.

        The probability that a given query's range covers value v,
        estimated from past queries.
        """
        if self.total_queries == 0:
            return np.zeros(self.domain.size)
        return self._value_counts / self.total_queries


class BasestationStatistics:
    """The complete statistics registry living at the basestation."""

    def __init__(self, config: ScoopConfig):
        self.config = config
        self.records: Dict[int, NodeRecord] = {}
        #: every summary ever received, in arrival order (never discarded).
        self.summary_history: List[Tuple[float, SummaryMessage]] = []
        #: directed link quality evidence: (from, to) -> delivery estimate.
        self.link_quality: Dict[Tuple[int, int], float] = {}
        #: origin -> (parent, last observation time), from packet headers.
        self.parents: Dict[int, Tuple[int, float]] = {}
        #: node -> last time any evidence of it being alive arrived (a
        #: summary it originated, or a packet header naming it as origin
        #: or as the forwarding origin's parent). Drives staleness-based
        #: eviction: the indexing algorithm stops assigning ranges to
        #: nodes silent for ``node_staleness_intervals`` summary
        #: intervals (the paper's node-death recovery, Section 6).
        self.last_heard: Dict[int, float] = {}
        #: per-attribute query statistics.
        self._queries_by_attr: Dict[int, QueryStatistics] = {
            attr: QueryStatistics(config.domain_of(attr))
            for attr in config.attribute_ids
        }
        #: per-attribute per-node summary-block records.
        self._attr_records: Dict[int, Dict[int, AttrNodeRecord]] = {
            attr: {} for attr in config.attribute_ids
        }

    @property
    def staleness_window(self) -> float:
        """Seconds of silence after which a node is presumed dead."""
        return self.config.node_staleness_intervals * self.config.summary_interval

    def _fresh(self, node: int, now: Optional[float]) -> bool:
        """Whether ``node`` counts as alive at ``now`` (always, if ``now``
        is None — the unfiltered historical view)."""
        if now is None:
            return True
        if node == self.config.basestation_id:
            return True
        return self.last_heard.get(node, -math.inf) >= now - self.staleness_window

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _record(self, node: int) -> NodeRecord:
        if node not in self.records:
            self.records[node] = NodeRecord(node=node)
        return self.records[node]

    def ingest_summary(self, summary: SummaryMessage, now: float) -> None:
        record = self._record(summary.origin)
        if record.last_summary_time >= 0:
            interval = max(now - record.last_summary_time, 1e-6)
            instantaneous = summary.readings_since_last / interval
            record.data_rate = (
                0.5 * record.data_rate + 0.5 * instantaneous
                if record.data_rate > 0
                else instantaneous
            )
        else:
            # First summary: assume the configured sample rate until the
            # next one arrives.
            record.data_rate = (
                summary.readings_since_last / self.config.summary_interval
                if summary.readings_since_last
                else 1.0 / self.config.sample_interval
            )
        record.last_summary_time = now
        self.last_heard[summary.origin] = now
        self.summary_history.append((now, summary))
        for block in summary.blocks:
            per_node = self._attr_records.get(block.attr)
            if per_node is None:
                continue  # block for an attribute this config doesn't know
            attr_record = per_node.setdefault(
                summary.origin, AttrNodeRecord(node=summary.origin)
            )
            attr_record.last_block = block
            attr_record.last_time = now
            attr_record.sid_history.append((now, block.last_sid))
        # Topology: the summary lists origin's best inbound neighbors, i.e.
        # delivery estimates for links (neighbor -> origin).
        for neighbor, quality in summary.neighbors:
            self.link_quality[(neighbor, summary.origin)] = quality
            # A node first known only by hearsay gets a full staleness
            # window of candidacy from its first sighting; hearsay never
            # *refreshes* an already-heard node, though — neighbor tables
            # can keep reporting a dead node for a while, and direct
            # silence is what must drive its eviction.
            self.last_heard.setdefault(neighbor, now)

    def observe_packet_header(
        self, origin: int, origin_parent: Optional[int], now: float
    ) -> None:
        """Every packet reaching the root reveals (origin, origin's parent)."""
        self.last_heard[origin] = now
        if origin_parent is not None and origin_parent != origin:
            self.parents[origin] = (origin_parent, now)
            self.last_heard[origin_parent] = max(
                self.last_heard.get(origin_parent, -math.inf), now
            )

    def record_query(
        self, value_range: Optional[Tuple[int, int]], now: float, attr: int = 0
    ) -> None:
        self.queries_for(attr).record(value_range, now)

    def queries_for(self, attr: int) -> QueryStatistics:
        """The named attribute's query statistics."""
        try:
            return self._queries_by_attr[attr]
        except KeyError:
            raise ValueError(
                f"attribute id {attr} outside registry of "
                f"{len(self._queries_by_attr)}"
            ) from None

    # ------------------------------------------------------------------
    # Views for the indexing algorithm
    # ------------------------------------------------------------------
    def known_nodes(self, now: Optional[float] = None) -> List[int]:
        """Nodes the basestation has evidence about (plus itself).

        With ``now``, nodes silent for longer than the staleness window
        are evicted from the view: the indexing algorithm must not assign
        ranges to nodes that may be dead. Without it, the full historical
        set (used for query planning — "the basestation never discards
        any summary message")."""
        nodes: Set[int] = {self.config.basestation_id}
        nodes.update(self.records.keys())
        for child, (parent, _when) in self.parents.items():
            nodes.add(child)
            nodes.add(parent)
        for a, b in self.link_quality:
            nodes.add(a)
            nodes.add(b)
        return sorted(node for node in nodes if self._fresh(node, now))

    def producer_nodes(
        self, now: Optional[float] = None, attr: int = 0
    ) -> List[int]:
        """Nodes with a usable histogram for ``attr`` (the p's of the
        algorithm).

        With ``now``, staleness-evicted nodes are excluded (see
        :meth:`known_nodes`)."""
        return sorted(
            node
            for node, record in self._attr_records[attr].items()
            if record.last_block is not None
            and record.last_block.histogram is not None
            and self._fresh(node, now)
        )

    def stale_nodes(self, now: float) -> Set[int]:
        """Nodes the basestation actually heard from at some point but
        not within the staleness window — presumed dead; their ranges get
        reassigned at the next remap."""
        return {node for node in self.last_heard if not self._fresh(node, now)}

    def production_matrix(
        self, producers: Sequence[int], attr: int = 0
    ) -> np.ndarray:
        """Rows of P(p -> v) over ``attr``'s whole domain, one per
        producer."""
        domain = self.config.domain_of(attr)
        matrix = np.zeros((len(producers), domain.size))
        per_node = self._attr_records[attr]
        for row, node in enumerate(producers):
            record = per_node.get(node)
            block = record.last_block if record is not None else None
            if block is not None and block.histogram is not None:
                matrix[row] = block.histogram.probability_vector(
                    domain.lo, domain.hi
                )
        return matrix

    def rate_vector(self, producers: Sequence[int]) -> np.ndarray:
        """Per-producer readings/second. Attributes are sampled together
        (one reading of each per sample tick), so one rate serves every
        attribute."""
        return np.array([self.records[node].data_rate for node in producers])

    # ------------------------------------------------------------------
    # Historical index usage (query planning, Section 5.5)
    # ------------------------------------------------------------------
    def sids_in_use(self, t_lo: float, t_hi: float, attr: int = 0) -> Set[int]:
        """Index IDs some node may have been using for ``attr`` during
        [t_lo, t_hi].

        A node's reports bracket the window: the last sid reported at or
        before t_hi could have been in use, and so could any sid reported
        within the window itself. Includes -1 when a node had no complete
        index yet (it was storing locally).
        """
        in_use: Set[int] = set()
        per_node = self._attr_records[attr]
        for node in self.records:
            record = per_node.get(node)
            history = record.sid_history if record is not None else []
            last_before: Optional[int] = None
            for time, sid in history:
                if time <= t_lo:
                    last_before = sid
                elif time <= t_hi + self.config.summary_interval:
                    in_use.add(sid)
            if last_before is not None:
                in_use.add(last_before)
            if not history:
                in_use.add(-1)
        if not self.records:
            in_use.add(-1)
        return in_use

    def nodes_possibly_storing_locally(
        self,
        value_range: Optional[Tuple[int, int]],
        t_lo: float,
        t_hi: float,
        attr: int = 0,
    ) -> Set[int]:
        """Nodes that may hold matching ``attr`` data *locally* during the
        window because they had no complete index (last_sid == -1).

        Their summaries' [min, max] bound what they produce, so nodes whose
        recent range cannot overlap the query are excluded.
        """
        out: Set[int] = set()
        per_node = self._attr_records[attr]
        for node in self.records:
            record = per_node.get(node)
            history = record.sid_history if record is not None else []
            reported = [
                sid
                for time, sid in history
                if time <= t_hi + self.config.summary_interval
            ]
            if reported and all(sid >= 0 for sid in reported[-2:]):
                continue  # had an index throughout the window
            block = record.last_block if record is not None else None
            if value_range is not None and block is not None:
                if (
                    block.max_value < value_range[0]
                    or block.min_value > value_range[1]
                ):
                    continue
            out.add(node)
        return out

    # ------------------------------------------------------------------
    # Summary-based query answering (Section 5.5 optimization)
    # ------------------------------------------------------------------
    def max_value_seen(self, since: float = 0.0, attr: int = 0) -> Optional[int]:
        """Answer MAX(attr) from summaries, costing no network traffic."""
        candidates = [
            block.max_value
            for t, s in self.summary_history
            if t >= since
            for block in s.blocks
            if block.attr == attr
        ]
        return max(candidates) if candidates else None
