"""The Scoop sensor-node application (Sections 5.2-5.5 of the paper).

A :class:`ScoopNode` runs on top of the simulated mote stack and implements
the node half of Scoop:

* **sampling** at the configured rate, keeping the recent-readings ring
  from which summary histograms are built;
* **summary messages** every ``summary_interval`` seconds, unicast hop by
  hop up the routing tree to the basestation;
* **storage-index reception** over Trickle; a node only ever *uses* a
  complete index and keeps its previous complete index until a newer one
  fully arrives; before the first complete index it stores locally
  (Section 5.3);
* **data routing** by the paper's six rules (Section 5.4), verbatim:

    1. a node with a storage index newer than the packet's ``sid`` rewrites
       the owner;
    2. if the owner is this node, store locally;
    3. if the owner is in the neighbor list, send directly (shortcut);
    4. if this node is the basestation, store here — never route back down;
    5. if the owner is in the descendants list, send down that branch;
    6. otherwise send to the parent;

  with batching of up to :data:`BATCH_SIZE` readings per data message;
* **query handling**: answering queries whose bitmap names this node by a
  linear flash scan, and selectively rebroadcasting query packets using the
  bitmap plus the neighbor and descendants lists (Section 5.5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import ScoopConfig
from repro.core.histogram import Histogram
from repro.core.messages import (
    AttributeSummary,
    DataMessage,
    MappingChunk,
    QueryMessage,
    ReplyMessage,
    SummaryMessage,
    WireReading,
)
from repro.core.storage_index import (
    STORE_LOCAL,
    StorageIndex,
    indexes_from_chunks,
)
from repro.sim.flash import Flash, RecentReadings, StoredReading
from repro.sim.kernel import EventHandle, Simulator, Timer
from repro.sim.metrics import DeliveryTracker
from repro.sim.mote import Mote
from repro.sim.packets import Frame, FrameKind
from repro.sim.radio import Radio
from repro.sim.trickle import Advertisement, ChunkDisseminator

#: A reading producer: (node_id, now, attr) -> raw value.
DataSource = Callable[[int, float, int], int]

#: Readings batched into one data message ("by default we use n = 5");
#: query replies are fragmented at the same size.
BATCH_SIZE = 5
#: Hop budget before a data packet gives up and routes to the root
#: (loop protection; the paper reports ~15% of readings falling back to
#: the root when the owner "could not be found"). Roughly twice the
#: network diameter.
MAX_DATA_HOPS = 10
#: Neighbors reported in a summary ("12, in our experiments").
SUMMARY_NEIGHBORS = 12
#: Trickle redundancy constant of mapping dissemination: a node stays
#: quiet for an interval once it has heard one consistent advert.
TRICKLE_K = 1
#: Random assessment delay, in seconds, before rebroadcasting a query.
QUERY_REBROADCAST_DELAY = (0.02, 0.25)
#: Gossip repetitions per query (the modified-Trickle rounds).
QUERY_GOSSIP_ROUNDS = 3


class _AttrBatch:
    """Per-attribute batching state (Section 5.4): one open batch per
    (attribute, destination owner)."""

    __slots__ = ("readings", "owner", "sid", "deadline")

    def __init__(self) -> None:
        self.readings: List[WireReading] = []
        self.owner: Optional[int] = None
        self.sid: int = -1
        self.deadline: Optional[EventHandle] = None


class ScoopNode(Mote):
    """One Scoop sensor node."""

    # Scoop's per-sample/per-frame state lives in slots (Mote already
    # grants subclasses a __dict__, so policy subclasses stay free to add
    # attributes; these descriptors just keep the hot reads off it).
    __slots__ = (
        "config",
        "source",
        "tracker",
        "flash",
        "_recent_by_attr",
        "_indexes",
        "disseminator",
        "_sample_timer",
        "_summary_timer",
        "sampling",
        "_was_sampling",
        "readings_since_summary",
        "_batches",
        "_queries_heard",
        "_query_gossip",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        config: ScoopConfig,
        source: Optional[DataSource] = None,
        tracker: Optional[DeliveryTracker] = None,
        energy=None,
        is_root: bool = False,
    ):
        super().__init__(
            node_id,
            sim,
            radio,
            is_root=is_root,
            beacon_interval=config.beacon_interval,
        )
        self.config = config
        self.source = source
        self.tracker = tracker
        self.flash = Flash(meter=energy, node_id=node_id)
        #: per-attribute recent-readings rings (summary histograms).
        self._recent_by_attr: Dict[int, RecentReadings] = {
            attr: RecentReadings() for attr in config.attribute_ids
        }

        #: last *complete* storage index per attribute (missing entry ->
        #: store that attribute locally, Section 5.3).
        self._indexes: Dict[int, StorageIndex] = {}
        self.disseminator: ChunkDisseminator[MappingChunk] = ChunkDisseminator(
            sim,
            send_advert=self._send_advert,
            send_chunk=self._send_chunk,
            on_complete=self._index_complete,
            k=TRICKLE_K,
        )

        self._sample_timer = Timer(
            sim,
            self._sample,
            interval=config.sample_interval,
            periodic=True,
            jitter=0.05,
        )
        self._summary_timer = Timer(
            sim,
            self._send_summary,
            interval=config.summary_interval,
            periodic=True,
            jitter=0.1,
        )
        self.sampling = False
        self._was_sampling = False
        self.readings_since_summary = 0

        # batching state (Section 5.4): one open batch per attribute and
        # destination owner (a batch carries one attribute's readings).
        self._batches: Dict[int, _AttrBatch] = {
            attr: _AttrBatch() for attr in config.attribute_ids
        }

        # query gossip state (the paper's "modified version of Trickle"):
        # qid -> {heard-this-round, rounds-sent, pending timer}
        self._queries_heard: Dict[int, int] = {}
        self._query_gossip: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_boot(self) -> None:
        self.disseminator.start()

    def start_sampling(self) -> None:
        """Begin the measured workload (after tree stabilization)."""
        if self.source is None:
            # fail fast here, not mid-simulation
            raise RuntimeError(f"node {self.node_id} has no data source")
        if self.sampling:
            return
        self.sampling = True
        self._sample_timer.start(
            delay=self.sim.rng.uniform(0.0, self.config.sample_interval)
        )
        self._start_summaries()

    def _start_summaries(self) -> None:
        """Start the periodic summary timer; policies that collect no
        statistics override this with a no-op."""
        self._summary_timer.start(
            delay=self.sim.rng.uniform(
                self.config.summary_interval * 0.25, self.config.summary_interval
            )
        )

    def stop_sampling(self) -> None:
        self.sampling = False
        self._sample_timer.stop()
        self._summary_timer.stop()
        for attr in self._batches:
            self._flush_batch(attr)

    def on_fail(self) -> None:
        """Node death: every timer stops and RAM-held work is lost — the
        open batches die unsent, gossip state evaporates. Flash survives
        (its readings are simply unreachable while the node is dark)."""
        self._was_sampling = self.sampling
        self.sampling = False
        self._sample_timer.stop()
        self._summary_timer.stop()
        for batch in self._batches.values():
            if batch.deadline is not None:
                batch.deadline.cancel()
                batch.deadline = None
            batch.readings = []
            batch.owner = None
        self._recent_by_attr = {
            attr: RecentReadings() for attr in self.config.attribute_ids
        }
        self.readings_since_summary = 0
        self.disseminator.stop()
        self._queries_heard.clear()
        self._query_gossip.clear()

    def on_revive(self) -> None:
        """Cold reboot: the node has no storage index (it stores locally
        until a complete one arrives over Trickle, Section 5.3) and
        resumes sampling if it was sampling when it died — through
        ``start_sampling``, so policy overrides (LOCAL/BASE start no
        summary timer) keep their behaviour across a reboot."""
        self._indexes = {}
        self.disseminator.reset()
        # Boot again through the policy's own hook: SCOOP restarts Trickle
        # dissemination, LOCAL/BASE (which override on_boot to skip it)
        # stay mapping-silent after a reboot too.
        self.on_boot()
        if self._was_sampling:
            self.start_sampling()

    # ------------------------------------------------------------------
    # Storage indexes (per attribute)
    # ------------------------------------------------------------------
    def index_for(self, attr: int) -> Optional[StorageIndex]:
        return self._indexes.get(attr)

    def install_index(self, index: StorageIndex) -> None:
        """Adopt ``index`` for its attribute if it is newer than what we
        hold (nodes never step backwards, Section 5.3)."""
        current = self._indexes.get(index.attr)
        if current is None or index.sid > current.sid:
            self._indexes[index.attr] = index
            self.on_new_index(index)

    def sid_for(self, attr: int) -> int:
        index = self._indexes.get(attr)
        return index.sid if index is not None else -1

    # ------------------------------------------------------------------
    # Sampling and batching
    # ------------------------------------------------------------------
    def _choose_owner(self, value: int, attr: int = 0) -> Optional[int]:
        """Owner for ``(attr, value)`` under that attribute's current
        index (None = no index).

        With the owner-set extension a node prefers itself, then the
        closest owner in its neighbor list, then the first listed owner.
        """
        index = self._indexes.get(attr)
        if index is None:
            return None
        owners = index.owners_of(value)
        if STORE_LOCAL in owners or self.node_id in owners:
            return self.node_id
        if len(owners) == 1:
            return owners[0]
        in_reach = [o for o in owners if self.tree.in_neighbor_list(o)]
        if in_reach:
            return max(in_reach, key=self.linkest.quality)
        return owners[0]

    def _sample(self) -> None:
        if not self.sampling:
            return
        now = self.sim.now
        # One reading of every registered attribute per sample tick (the
        # mote reads its whole sensor board at once).
        for attr in self.config.attribute_ids:
            value = self.config.domain_of(attr).clamp(
                self.source(self.node_id, now, attr)
            )
            self._recent_by_attr[attr].add(now, value)
            if attr == 0:
                self.readings_since_summary += 1
            owner = self._choose_owner(value, attr)
            if self.tracker is not None:
                self.tracker.reading_produced(
                    self.node_id, value, now, intended_owner=owner, attr=attr
                )
            self._place((value, now, self.node_id), owner, attr)

    def _place(self, reading: WireReading, owner: Optional[int], attr: int) -> None:
        """Store or batch one fresh reading for its chosen owner."""
        if owner is None or owner == self.node_id:
            # No index yet (store locally, Section 5.3) or we own it.
            self._store_reading(reading, attr)
        else:
            self._add_to_batch(reading, owner, attr)

    def _add_to_batch(self, reading: WireReading, owner: int, attr: int = 0) -> None:
        batch = self._batches[attr]
        if batch.readings and batch.owner != owner:
            # "As soon as a node produces data for another node ... the
            # message is sent."
            self._flush_batch(attr)
        if not batch.readings:
            batch.owner = owner
            batch.sid = self.sid_for(attr)
            batch.deadline = self.sim.schedule(
                self.config.batch_flush_timeout, self._flush_batch, attr
            )
        batch.readings.append(reading)
        if len(batch.readings) >= BATCH_SIZE:
            self._flush_batch(attr)

    def _flush_batch(self, attr: int = 0) -> None:
        batch = self._batches[attr]
        if batch.deadline is not None:
            batch.deadline.cancel()
            batch.deadline = None
        if not batch.readings or batch.owner is None:
            batch.readings = []
            return
        message = DataMessage(
            readings=list(batch.readings),
            owner=batch.owner,
            sid=batch.sid,
            attr=attr,
        )
        batch.readings = []
        batch.owner = None
        self.route_data(message)

    # ------------------------------------------------------------------
    # Data routing (the six rules)
    # ------------------------------------------------------------------
    def _store_reading(self, reading: WireReading, attr: int = 0) -> None:
        value, timestamp, producer = reading
        self.flash.store(
            StoredReading(
                origin=producer, value=value, timestamp=timestamp, attr=attr
            )
        )
        if self.tracker is not None:
            self.tracker.reading_stored(
                producer,
                value,
                timestamp,
                stored_at=self.node_id,
                time=self.sim.now,
                attr=attr,
            )

    def _store_message(self, message: DataMessage) -> None:
        for reading in message.readings:
            self._store_reading(reading, message.attr)

    #: minimum snooped link quality for the rule-3 neighbor shortcut; the
    #: neighbor list also contains barely audible nodes, and burning six
    #: retransmissions on a 10%-delivery link before falling back is worse
    #: than climbing the tree directly.
    SHORTCUT_MIN_QUALITY = 0.25

    def route_data(self, message: DataMessage, from_node: Optional[int] = None) -> None:
        """Apply routing rules 1-6 to a produced or received data message.

        ``from_node`` is the link sender we received it from (None when we
        produced it); it breaks stale-descendant ping-pong loops.
        """
        # Rule 1: a newer index (for the batch's attribute) rewrites owner
        # and sid. A batch whose values now map to different owners is
        # split per new owner.
        index = self.index_for(message.attr)
        if (
            not message.force_base
            and index is not None
            and index.sid > message.sid
        ):
            regrouped: Dict[int, List[WireReading]] = {}
            for reading in message.readings:
                owner = self._choose_owner(reading[0], message.attr)
                regrouped.setdefault(owner, []).append(reading)
            for owner, readings in regrouped.items():
                self._route_by_rules(
                    DataMessage(
                        readings=readings,
                        owner=owner,
                        sid=index.sid,
                        hops=message.hops,
                        attr=message.attr,
                    ),
                    from_node,
                )
            return
        self._route_by_rules(message, from_node)

    def _route_by_rules(
        self, message: DataMessage, from_node: Optional[int] = None
    ) -> None:
        owner = message.owner
        # Rule 2: we are the owner.
        if owner == self.node_id:
            self._store_message(message)
            return
        # Loop/hop-budget protection: give up on the owner and climb to the
        # root (the paper's "value ends up being stored at the root"
        # fallback path).
        if message.hops >= MAX_DATA_HOPS:
            message.force_base = True
        if not message.force_base:
            # Rule 3: shortcut straight to a listed neighbor (if the link
            # is worth trying).
            if (
                owner != from_node
                and self.tree.in_neighbor_list(owner)
                and self.linkest.quality(owner) >= self.SHORTCUT_MIN_QUALITY
            ):
                self._transmit_data(message, owner, fallback_to_parent=True)
                return
        # Rule 4: the basestation never routes data back down.
        if self.is_root:
            self._store_message(message)
            return
        if not message.force_base:
            # Rule 5: send down the branch that leads to the owner — unless
            # that branch is where the packet just came from, in which case
            # the descendants entry is stale (the owner moved): drop it and
            # climb instead.
            next_down = self.tree.next_hop_down(owner)
            if next_down == from_node and next_down is not None:
                self.tree.forget_descendant(owner)
                next_down = None
            if next_down is not None:
                self._transmit_data(message, next_down, fallback_to_parent=True)
                return
        # Rule 6: send up to the parent.
        if self.tree.parent is not None:
            self._transmit_data(message, self.tree.parent, fallback_to_parent=False)
        else:
            # Orphaned (tree flap): keep the data rather than lose it.
            self._store_message(message)

    def _transmit_data(
        self, message: DataMessage, next_hop: int, fallback_to_parent: bool
    ) -> None:
        message.hops += 1

        def done(success: bool) -> None:
            if success:
                return
            if fallback_to_parent and self.tree.parent is not None:
                # Shortcut/descendant route failed after retries: climb the
                # tree instead (ends at the owner or, failing that, the root).
                retry = DataMessage(
                    readings=message.readings,
                    owner=message.owner,
                    sid=message.sid,
                    hops=message.hops,
                    force_base=message.force_base,
                    attr=message.attr,
                )
                self._transmit_data(retry, self.tree.parent, fallback_to_parent=False)
            # else: dropped; shows up as storage loss (paper: ~93% success).

        self.unicast(next_hop, FrameKind.DATA, message, done=done)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def _attr_summary_block(self, attr: int) -> AttributeSummary:
        values = self._recent_by_attr[attr].values()
        histogram = Histogram.from_values(values) if values else None
        return AttributeSummary(
            attr=attr,
            histogram=histogram,
            min_value=min(values) if values else 0,
            max_value=max(values) if values else 0,
            sum_values=sum(values) if values else 0,
            last_sid=self.sid_for(attr),
        )

    def _build_summary(self) -> SummaryMessage:
        return SummaryMessage(
            origin=self.node_id,
            readings_since_last=self.readings_since_summary,
            neighbors=tuple(self.linkest.best_neighbors(SUMMARY_NEIGHBORS)),
            # one block per attribute rides in the same packet — bytes,
            # not messages, which keeps Scoop's maintenance cost
            # sublinear in the attribute count (E15).
            blocks=tuple(
                self._attr_summary_block(attr) for attr in self.config.attribute_ids
            ),
        )

    def _send_summary(self) -> None:
        if self.is_root:
            return
        summary = self._build_summary()
        self.readings_since_summary = 0
        if self.tree.parent is None:
            return  # not joined; try again next interval
        self.unicast(self.tree.parent, FrameKind.SUMMARY, summary)

    # ------------------------------------------------------------------
    # Index dissemination plumbing
    # ------------------------------------------------------------------
    def _send_advert(self, advert: Advertisement) -> None:
        self.broadcast(FrameKind.MAPPING, advert)

    def _send_chunk(self, chunk: MappingChunk) -> None:
        self.broadcast(FrameKind.MAPPING, chunk)

    def _index_complete(self, sid: int, chunks: List[MappingChunk]) -> None:
        domains = {
            attr: self.config.domain_of(attr)
            for attr in self.config.attribute_ids
        }
        try:
            rebuilt = indexes_from_chunks(domains, chunks)
        except ValueError:
            return  # malformed chunk set; keep the old indexes (Section 5.3)
        for index in rebuilt.values():
            self.install_index(index)

    def on_new_index(self, index: StorageIndex) -> None:
        """Subclass/observer hook: a new complete index was installed."""

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        kind = frame.kind
        if kind is FrameKind.DATA:
            message: DataMessage = frame.payload
            # Copy before mutating: retransmitted duplicates and snoopers
            # share the payload object.
            self.route_data(
                DataMessage(
                    readings=list(message.readings),
                    owner=message.owner,
                    sid=message.sid,
                    hops=message.hops,
                    force_base=message.force_base,
                    attr=message.attr,
                ),
                from_node=frame.src,
            )
        elif kind is FrameKind.SUMMARY:
            if self.is_root:
                self._ingest_summary(frame)
            elif self.tree.parent is not None and self.tree.parent != frame.src:
                # Never bounce a summary straight back where it came from
                # (transient parent loops).
                self.forward(frame, self.tree.parent)
        elif kind is FrameKind.MAPPING:
            payload = frame.payload
            if isinstance(payload, Advertisement):
                self.disseminator.on_advert(payload)
            else:
                self.disseminator.on_chunk(payload)
        elif kind is FrameKind.QUERY:
            self._handle_query(frame)
        elif kind is FrameKind.REPLY:
            if self.is_root:
                self._ingest_reply(frame)
            elif self.tree.parent is not None and self.tree.parent != frame.src:
                self.forward(frame, self.tree.parent)

    def _ingest_summary(self, frame: Frame) -> None:
        """Root-only; overridden by the basestation."""

    def _ingest_reply(self, frame: Frame) -> None:
        """Root-only; overridden by the basestation."""

    # ------------------------------------------------------------------
    # Queries (Section 5.5)
    # ------------------------------------------------------------------

    def _handle_query(self, frame: Frame) -> None:
        query: QueryMessage = frame.payload
        qid = query.query_id
        first_time = qid not in self._queries_heard
        self._queries_heard[qid] = self._queries_heard.get(qid, 0) + 1
        if not first_time:
            self._note_query_copy_heard(qid)
            return
        if self.node_id in query.bitmap:
            # Stagger the answer: replying the instant the gossip wave
            # arrives would synchronise every target's reply burst into
            # hidden-terminal collisions near the root (the paper observes
            # replies taking "several seconds" to start coming back).
            self.sim.schedule(self.sim.rng.uniform(0.5, 3.0), self._answer_query, query)
        if self._should_rebroadcast(query):
            self._start_query_gossip(query)

    def _should_rebroadcast(self, query: QueryMessage) -> bool:
        """Selective rebroadcast (Section 5.5).

        A node relays the query only when the bitmap names a node other
        than itself that is in its descendants or neighbor lists, so it
        can demonstrably help reach a target. Every other node, interior
        or leaf, suppresses, which is what keeps Scoop's query cost below
        LOCAL's full flood.
        """
        targets = query.bitmap - {self.node_id}
        if not targets:
            return False
        reachable = set(self.tree.descendants()) | set(self.tree.neighbor_list())
        return bool(targets & reachable)

    def _start_query_gossip(self, query: QueryMessage) -> None:
        lo, hi = QUERY_REBROADCAST_DELAY
        state = {"round": 0, "heard_this_round": 0}
        self._query_gossip[query.query_id] = state
        self.sim.schedule(self.sim.rng.uniform(lo, hi), self._query_gossip_fire, query)

    def _query_gossip_fire(self, query: QueryMessage) -> None:
        state = self._query_gossip.get(query.query_id)
        if state is None:
            return
        # Trickle-style suppression (k=1): stay quiet this round if any
        # copy was heard from a neighbor meanwhile.
        if state["heard_this_round"] < 1:
            self.broadcast(FrameKind.QUERY, query)
        state["round"] += 1
        state["heard_this_round"] = 0
        if state["round"] >= QUERY_GOSSIP_ROUNDS:
            del self._query_gossip[query.query_id]
            return
        lo, hi = QUERY_REBROADCAST_DELAY
        delay = (
            self.sim.rng.uniform(lo, hi) * (2 ** state["round"])
            + 0.25 * state["round"]
        )
        self.sim.schedule(delay, self._query_gossip_fire, query)

    def _note_query_copy_heard(self, qid: int) -> None:
        state = self._query_gossip.get(qid)
        if state is not None:
            state["heard_this_round"] += 1

    def _answer_query(self, query: QueryMessage) -> None:
        if not self.booted:
            return  # died between hearing the query and the reply stagger
        matches = self.flash.scan(
            time_range=query.time_range,
            value_range=query.value_range,
            predicate=(
                (lambda r: r.origin in query.node_filter)
                if query.node_filter is not None
                else None
            ),
            attr=query.attr,
        )
        readings: List[WireReading] = [
            (r.value, r.timestamp, r.origin) for r in matches
        ]
        # "The node then sends a reply—even if no tuples matched the query."
        fragments: List[List[WireReading]] = [
            readings[i : i + BATCH_SIZE] for i in range(0, len(readings), BATCH_SIZE)
        ] or [[]]
        total = len(fragments)
        for number, fragment in enumerate(fragments):
            reply = ReplyMessage(
                query_id=query.query_id,
                origin=self.node_id,
                readings=fragment,
                fragment=number,
                total_fragments=total,
            )
            if self.is_root:
                self._ingest_reply_local(reply)
            elif self.tree.parent is not None:
                # Pace fragments out instead of dumping a burst on the MAC.
                self.sim.schedule(
                    number * 0.08 + self.sim.rng.uniform(0.0, 0.05),
                    self.unicast,
                    self.tree.parent,
                    FrameKind.REPLY,
                    reply,
                )

    def _ingest_reply_local(self, reply: ReplyMessage) -> None:
        """Root answering its own query locally; overridden by basestation."""
