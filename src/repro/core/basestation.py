"""The Scoop basestation: statistics sink, index builder, query frontend.

The basestation (run on a PC in the paper, attached to mote 0) closes the
Scoop control loop:

* it ingests every summary that survives the trip up the tree and every
  origin/parent header it hears (Section 5.2);
* every ``remap_interval`` seconds it rebuilds the storage index from its
  statistics (Figure 2), suppresses dissemination when the new index is
  nearly identical to the current one (Section 5.3), and otherwise seeds
  its Trickle disseminator with the new chunks;
* it plans and issues queries (Section 5.5): consulting *all* storage
  indices that could have been active during the queried time window —
  "the basestation never discards old storage indices" — plus nodes that
  were storing locally, encodes the target set in the query bitmap, floods
  it selectively, and assembles replies;
* it answers what it can for free: data that was stored at the root (rule
  4 traffic) is scanned locally, and MAX/MIN-style questions are answered
  straight from summaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import ScoopConfig
from repro.core.cost_model import NetworkModel
from repro.core.indexing import IndexBuildResult, build_storage_index
from repro.core.messages import QueryMessage, ReplyMessage, SummaryMessage
from repro.core.node import ScoopNode
from repro.core.query import Query, QueryResult
from repro.core.statistics import BasestationStatistics
from repro.core.storage_index import STORE_LOCAL, StorageIndex, chunk_index_set
from repro.sim.kernel import Simulator, Timer
from repro.sim.metrics import DeliveryTracker
from repro.sim.packets import Frame, FrameKind
from repro.sim.radio import Radio

#: Suppress dissemination when the new index maps at least this fraction
#: of the domain identically to the current one (Section 5.3:
#: "suppressing the dissemination of a new storage index altogether if
#: it is very similar to the previous storage index").
SUPPRESSION_SIMILARITY = 0.95


class Basestation(ScoopNode):
    """Node 0: the root of the routing tree and the brain of Scoop."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        config: ScoopConfig,
        tracker: Optional[DeliveryTracker] = None,
        energy=None,
    ):
        super().__init__(
            node_id=config.basestation_id,
            sim=sim,
            radio=radio,
            config=config,
            tracker=tracker,
            energy=energy,
            is_root=True,
        )
        self.stats = BasestationStatistics(config)
        #: shared monotonic id counter: every accepted index of every
        #: attribute draws its sid here, and the latest value doubles as
        #: the dissemination epoch ("shared epoch, per-attribute ids").
        self._sid_counter = 0
        #: per-attribute (created_at, index) histories of every index
        #: ever disseminated.
        self.index_histories: Dict[int, List[Tuple[float, StorageIndex]]] = {
            attr: [] for attr in config.attribute_ids
        }
        self.remaps_run = 0
        self.remaps_suppressed = 0
        #: Accumulated cost-model work over every remap of the trial
        #: (model builds, Dijkstra runs, point queries) — exported through
        #: :class:`~repro.sim.metrics.TrialMetrics`.
        self.planner_stats: Dict[str, int] = {}
        self._remap_timer = Timer(
            sim, self._remap, interval=config.remap_interval, periodic=True, jitter=0.02
        )
        self._open_queries: Dict[int, QueryResult] = {}
        self.query_log: List[QueryResult] = []

    @property
    def index_epoch(self) -> int:
        """The remap epoch: the shared sid counter, bumped whenever a
        remap disseminates new storage indexes. Cached query answers
        keyed on it self-invalidate the moment the mapping changes."""
        return self._sid_counter

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_scoop(self) -> None:
        """Start periodic index recomputation (call when sampling starts)."""
        self._remap_timer.start(delay=self.config.remap_interval)

    # ------------------------------------------------------------------
    # Statistics ingestion
    # ------------------------------------------------------------------
    # Every heard frame's origin/parent header, ahead of the mote's own
    # bookkeeping (the two touch disjoint state) and of any handler.
    def on_receive(self, frame: Frame) -> None:
        if self.booted:
            self.stats.observe_packet_header(
                frame.origin, frame.origin_parent, self.sim.now
            )
        super().on_receive(frame)

    def on_snoop(self, frame: Frame) -> None:
        if self.booted and frame.kind is not FrameKind.ACK:
            self.stats.observe_packet_header(
                frame.origin, frame.origin_parent, self.sim.now
            )
        super().on_snoop(frame)

    def _ingest_summary(self, frame: Frame) -> None:
        summary: SummaryMessage = frame.payload
        self.stats.ingest_summary(summary, self.sim.now)

    # ------------------------------------------------------------------
    # Index construction and dissemination
    # ------------------------------------------------------------------
    def _bump(self, counter: str, by: int = 1) -> None:
        self.planner_stats[counter] = self.planner_stats.get(counter, 0) + by

    def _remap(self) -> None:
        """One remap cycle: run the Figure-2 argmin once per registered
        attribute (sharing a single topology/cost model build — the
        planner work that stays flat in the attribute count), then
        disseminate every accepted index under one shared epoch."""
        now = self.sim.now
        model = NetworkModel.from_statistics(self.stats)
        try:
            accepted: List[Tuple[int, StorageIndex]] = []
            for attr in self.config.attribute_ids:
                provisional_sid = self._sid_counter + 1 + len(accepted)
                result = build_storage_index(
                    provisional_sid,
                    self.stats,
                    model,
                    self.config,
                    now,
                    previous=self.index_for(attr),
                    attr=attr,
                )
                self._bump(f"a{attr}.index_builds")
                candidate = result.index
                if result.chose_store_local:
                    candidate = StorageIndex.uniform(
                        provisional_sid,
                        self.config.domain_of(attr),
                        STORE_LOCAL,
                        attr=attr,
                    )
                if self._should_suppress(candidate, model, result, now, attr):
                    # "...suppressing the dissemination of a new storage
                    # index altogether if it is very similar to the
                    # previous" — nodes keep using the old one.
                    self._bump(f"a{attr}.remaps_suppressed")
                    continue
                accepted.append((attr, candidate))
            self.remaps_run += 1
            if not accepted:
                self.remaps_suppressed += 1
                return
            # Count the staleness-evicted population once per remap (it
            # is attribute-agnostic); reassignment counts are per index.
            stale = self.stats.stale_nodes(now)
            if stale:
                self._bump("stale_nodes_seen", len(stale))
            for attr, candidate in accepted:
                self._count_reassignments(candidate, stale, attr)
                self._sid_counter += 1
                stamped = candidate.with_sid(self._sid_counter)
                self._indexes[attr] = stamped
                self.index_histories[attr].append((now, stamped))
                self._bump(f"a{attr}.indices_disseminated")
            # every attribute's current mapping rides one Trickle wave —
            # gossip cost per epoch is shared across k (E15)
            chunks = chunk_index_set(self._sid_counter, self._indexes)
            self.disseminator.seed(self._sid_counter, chunks)
        finally:
            self._absorb_planner_stats(model)

    def _count_reassignments(
        self, candidate: StorageIndex, stale: Set[int], attr: int = 0
    ) -> None:
        """Planner counter for the node-death recovery story (E14): how
        many of this attribute's domain values moved off a presumed-dead
        owner onto a live one."""
        current = self.index_for(attr)
        if not stale or current is None:
            return
        reassigned = sum(
            1
            for v in self.config.domain_of(attr)
            if set(current.owners_of(v)) & stale
            and not set(candidate.owners_of(v)) & stale
        )
        if reassigned:
            self._bump("owners_reassigned", reassigned)

    def _absorb_planner_stats(self, model: NetworkModel) -> None:
        """Fold one remap's cost-model counters into the trial totals."""
        self._bump("model_builds")
        for name, count in model.stats.items():
            self._bump(name, count)

    def _should_suppress(
        self,
        candidate: StorageIndex,
        model: NetworkModel,
        result: IndexBuildResult,
        now: float,
        attr: int = 0,
    ) -> bool:
        """Suppress dissemination when the new index is "very similar" to
        the current one (Section 5.3) — similar both in the fraction of the
        domain mapped identically AND in expected cost, so a small change
        to a *hot* value (e.g. a heavily queried band moving toward the
        base) still propagates."""
        current = self.index_for(attr)
        if current is None:
            return False
        if candidate.similarity(current) < SUPPRESSION_SIMILARITY:
            return False
        if STORE_LOCAL in current.all_owners() or STORE_LOCAL in (
            candidate.all_owners()
        ):
            # Policy-mode changes always disseminate; plain similarity is
            # not meaningful across the sentinel.
            return candidate.similarity(current) >= 1.0
        from repro.core.indexing import evaluate_index_cost

        old_cost = evaluate_index_cost(
            current, self.stats, model, self.config, now
        )
        new_cost = max(result.expected_cost, 1e-9)
        # 25% slack: statistics built from 30-reading histograms fluctuate
        # that much without the placement being meaningfully better, and
        # re-disseminating resets every node's chunk-collection progress.
        return old_cost <= new_cost * 1.25 + 1e-9

    # ------------------------------------------------------------------
    # Query planning (Section 5.5)
    # ------------------------------------------------------------------
    def _indices_active_during(
        self, t_lo: float, t_hi: float, attr: int = 0
    ) -> List[StorageIndex]:
        """All of ``attr``'s indices whose activity window may overlap
        [t_lo, t_hi].

        An index is active from its creation until the *next* index is
        created — but nodes lag (lost chunks), so the basestation also
        keeps any index some node reported using in the window
        (``sids_in_use``).
        """
        history = self.index_histories[attr]
        reported = self.stats.sids_in_use(t_lo, t_hi, attr)
        active: List[StorageIndex] = []
        for position, (created_at, index) in enumerate(history):
            next_created = (
                history[position + 1][0]
                if position + 1 < len(history)
                else float("inf")
            )
            by_time = created_at <= t_hi and next_created >= t_lo
            if by_time or index.sid in reported:
                active.append(index)
        return active

    def plan_query(self, query: Query) -> Set[int]:
        """The set of nodes that may hold matching tuples, consulting the
        queried attribute's index stream."""
        if query.node_list is not None:
            return set(query.node_list)
        attr = query.attr
        domain = self.config.domain_of(attr)
        t_lo, t_hi = query.time_range
        v_range = query.value_range or (domain.lo, domain.hi)
        targets: Set[int] = set()
        local_mode = False
        for index in self._indices_active_during(t_lo, t_hi, attr):
            owners = index.owners_for_range(*v_range)
            if STORE_LOCAL in owners:
                local_mode = True
                owners = owners - {STORE_LOCAL}
            targets |= owners
        reported = self.stats.sids_in_use(t_lo, t_hi, attr)
        if -1 in reported or local_mode or not self.index_histories[attr]:
            # Some nodes were storing locally: add every node whose recent
            # value range could overlap the query.
            targets |= self.stats.nodes_possibly_storing_locally(
                query.value_range, t_lo, t_hi, attr
            )
        # Data that fell back to the root is found by the free local scan.
        targets.discard(self.node_id)
        return targets

    # ------------------------------------------------------------------
    # Query issue / reply assembly
    # ------------------------------------------------------------------
    def validate_query(self, query: Query) -> None:
        """Check an externally constructed query against this station's
        configuration, raising ``ValueError`` on the first problem.

        Malformed queries error instead of silently returning nothing:
        the attribute must be registered, a value range must sit inside
        that attribute's configured domain, and a node list may only
        name nodes in the deployed population. Every query entering
        :meth:`issue_query` passes through here, so externally supplied
        queries (the service facade's path) get the same validation as
        the internal generator's.
        """
        domain = self.config.domain_of(query.attr)
        if query.value_range is not None:
            lo, hi = query.value_range
            if lo not in domain or hi not in domain:
                raise ValueError(
                    f"query {query.query_id}: value range [{lo}, {hi}] outside "
                    f"attribute {query.attr}'s domain [{domain.lo}, {domain.hi}]"
                )
        if query.node_list is not None:
            unknown = {n for n in query.node_list if not 0 <= n < self.config.n_nodes}
            if unknown:
                raise ValueError(
                    f"query {query.query_id}: node list names unknown nodes "
                    f"{sorted(unknown)}; the population is 0..{self.config.n_nodes - 1}"
                )

    def issue_query(self, query: Query) -> QueryResult:
        now = self.sim.now
        self.validate_query(query)
        self.stats.record_query(query.value_range, now, attr=query.attr)
        targets = self.plan_query(query)
        result = QueryResult(query=query, nodes_targeted=set(targets))
        # Free local scan: rule-4 fallback data and anything the root owns.
        local = self.flash.scan(
            time_range=query.time_range,
            value_range=query.value_range,
            attr=query.attr,
        )
        if query.node_list is not None:
            local = [r for r in local if r.origin in query.node_list]
        result.add_readings([(r.value, r.timestamp, r.origin) for r in local])
        result.local_readings = len(local)

        if not targets:
            result.answered_locally = True
            result.closed = True
            self.query_log.append(result)
            return result

        message = QueryMessage(
            query_id=query.query_id,
            bitmap=frozenset(targets),
            time_range=query.time_range,
            value_range=query.value_range,
            issued_at=now,
            node_filter=query.node_list,
            bitmap_bytes=self.config.query_bitmap_bytes,
            attr=query.attr,
        )
        self._open_queries[query.query_id] = result
        if self.tracker is not None:
            self.tracker.query_issued(query.query_id, now, nodes_targeted=len(targets))
        # Mark our own query as heard so a neighbor's rebroadcast doesn't
        # make us treat it as new, then gossip it out (initial broadcast
        # plus the modified-Trickle repeats all nodes use).
        self._queries_heard[query.query_id] = 1
        self.broadcast(FrameKind.QUERY, message)
        self._start_query_gossip(message)
        self.sim.schedule(
            self.config.query_reply_window, self._close_query, query.query_id
        )
        return result

    def _ingest_reply(self, frame: Frame) -> None:
        reply: ReplyMessage = frame.payload
        self._accept_reply(reply, from_network=True)

    def _ingest_reply_local(self, reply: ReplyMessage) -> None:
        self._accept_reply(reply, from_network=False)

    def _accept_reply(self, reply: ReplyMessage, from_network: bool) -> None:
        result = self._open_queries.get(reply.query_id)
        if result is None:
            return  # reply window already closed
        result.nodes_replied.add(reply.origin)
        result.add_readings(reply.readings)
        if from_network and self.tracker is not None:
            self.tracker.query_reply(reply.query_id, len(reply.readings))

    def _close_query(self, query_id: int) -> None:
        result = self._open_queries.pop(query_id, None)
        if result is not None:
            result.closed = True
            self.query_log.append(result)
