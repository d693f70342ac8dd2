"""Message-count accounting: the paper's cost metric.

Section 6 of the paper: "our cost metric is the total number of messages the
nodes collectively send", broken down into data, summary, mapping, and
query/reply messages (Figure 3). :class:`MessageCensus` records every radio
transmission by node and :class:`~repro.sim.packets.FrameKind`, including
retransmissions (a retransmission is a message a node sends).

Routing-tree beacons and link-layer ACKs exist identically in every storage
scheme and are not part of the paper's reported counts; they are tracked in
separate buckets so they can still be inspected.

:class:`DeliveryTracker` records end-to-end outcomes (was a produced reading
eventually stored? at its mapped owner or at the root? did a query reply
make it back?) used by the loss-rate experiment (E6).

:class:`TrialMetrics` is the structured per-trial telemetry record — every
counter the census and energy meter accumulate, folded into one JSON-ready
dataclass that rides on
:class:`~repro.experiments.runner.ExperimentResult` and feeds the
per-campaign JSON export.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.sim.packets import COST_KINDS, Frame, FrameKind


class MessageCensus:
    """Per-node, per-kind transmission and reception counters."""

    def __init__(self) -> None:
        self.sent: Dict[int, Dict[FrameKind, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.received: Dict[int, Dict[FrameKind, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.sent_bits: Dict[int, int] = defaultdict(int)

    # -- recording hooks (wired to the radio) ---------------------------
    def record_transmit(self, node: int, kind: FrameKind, bits: int) -> None:
        self.sent[node][kind] += 1
        self.sent_bits[node] += bits

    def record_delivery(self, sender: int, receiver: int, frame: Frame) -> None:
        self.received[receiver][frame.kind] += 1

    def record_deliveries(self, receivers: Iterable[int], kind: FrameKind) -> None:
        """Batch form of :meth:`record_delivery`: one transmission's whole
        reception fan-out (the per-delivery hook tax dominated trials)."""
        received = self.received
        for receiver in receivers:
            received[receiver][kind] += 1

    # -- aggregate views -------------------------------------------------
    def total_sent(self, kinds: Optional[Iterable[FrameKind]] = None) -> int:
        """Total messages sent network-wide, default = the paper's metric."""
        wanted = tuple(kinds) if kinds is not None else COST_KINDS
        return sum(
            count
            for per_node in self.sent.values()
            for kind, count in per_node.items()
            if kind in wanted
        )

    def sent_by_kind(self) -> Dict[FrameKind, int]:
        out: Dict[FrameKind, int] = defaultdict(int)
        for per_node in self.sent.values():
            for kind, count in per_node.items():
                out[kind] += count
        return dict(out)

    def received_by_kind(self) -> Dict[FrameKind, int]:
        out: Dict[FrameKind, int] = defaultdict(int)
        for per_node in self.received.values():
            for kind, count in per_node.items():
                out[kind] += count
        return dict(out)

    def node_sent(self, node: int, kinds: Optional[Iterable[FrameKind]] = None) -> int:
        wanted = tuple(kinds) if kinds is not None else COST_KINDS
        return sum(c for k, c in self.sent[node].items() if k in wanted)

    def node_received(
        self, node: int, kinds: Optional[Iterable[FrameKind]] = None
    ) -> int:
        wanted = tuple(kinds) if kinds is not None else COST_KINDS
        return sum(c for k, c in self.received[node].items() if k in wanted)

    def breakdown(self) -> Dict[str, int]:
        """The paper's Figure 3 categories (query and reply merged)."""
        by_kind = self.sent_by_kind()
        return {
            "data": by_kind.get(FrameKind.DATA, 0),
            "summary": by_kind.get(FrameKind.SUMMARY, 0),
            "mapping": by_kind.get(FrameKind.MAPPING, 0),
            "query/reply": by_kind.get(FrameKind.QUERY, 0)
            + by_kind.get(FrameKind.REPLY, 0),
        }

    def skew(self) -> float:
        """Max over nodes of sent+received, divided by the mean (load skew)."""
        nodes = set(self.sent) | set(self.received)
        if not nodes:
            return 0.0
        loads = [self.node_sent(n) + self.node_received(n) for n in nodes]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 0.0

    def node_loads(self) -> Dict[int, int]:
        """Per-node sent+received message load (the paper's cost kinds)."""
        nodes = set(self.sent) | set(self.received)
        return {n: self.node_sent(n) + self.node_received(n) for n in sorted(nodes)}


@dataclass
class TrialMetrics:
    """Structured per-trial telemetry: the lossless breakdown record.

    Everything the census, energy meter, and cost model accumulate during
    one simulated trial, in JSON-ready form (string keys throughout, so a
    ``to_dict``/``from_dict`` round trip through ``json`` is the identity).
    Carried on :class:`~repro.experiments.runner.ExperimentResult` and
    exported per campaign; ``None`` for analytical evaluations, which have
    no simulator to meter.
    """

    #: Transmissions by :class:`~repro.sim.packets.FrameKind` value — all
    #: kinds, including the beacon/ack buckets outside the paper's metric.
    messages_sent: Dict[str, int] = field(default_factory=dict)
    #: Deliveries by kind (a broadcast may be received more than once).
    messages_received: Dict[str, int] = field(default_factory=dict)
    #: Network-wide energy in joules by component:
    #: radio_tx / radio_rx / flash_write / flash_read.
    energy_j: Dict[str, float] = field(default_factory=dict)
    #: The root's own energy split, same component keys (E7).
    root_energy_j: Dict[str, float] = field(default_factory=dict)
    #: Per-node sent+received cost-kind messages, keyed by node id (as a
    #: string, for JSON losslessness). The root's entry is the paper's
    #: "load on the root" series.
    node_load: Dict[str, int] = field(default_factory=dict)
    #: max/mean of node_load — the E7 skew statistic.
    load_skew: float = 0.0
    #: Basestation planner counters (cost-model builds, Dijkstra runs,
    #: point queries) — the index-construction side of the cost story.
    planner: Dict[str, int] = field(default_factory=dict)
    #: Data-survival breakdown under node churn (E14): produced/stored
    #: reading counts, how many ended up on nodes that later died
    #: (orphaned flash), how many remain retrievable, and the
    #: retrieval-completeness ratio. Empty when the trial had no tracker.
    survival: Dict[str, float] = field(default_factory=dict)
    #: Per-attribute counters (E15), keyed ``"a<attr>"``: readings
    #: produced/stored, queries issued, and the oracle recall of that
    #: attribute's query stream. Always carries at least ``"a0"`` for
    #: simulated trials, so single-attribute runs are the k=1 row of the
    #: same table.
    attributes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Ground-truth query-oracle scorecard for the whole trial: mean/min
    #: recall against the exact replayed answer sets, and the count of
    #: precision violations (returned readings the oracle says were never
    #: produced — always 0 unless the pipeline corrupts data).
    oracle: Dict[str, float] = field(default_factory=dict)
    #: Serving-layer scorecard for query-service trials (E16): offered /
    #: served / shed request counts, cache hit rate, latency and
    #: staleness percentiles — all simulated-time quantities, so fully
    #: deterministic in the spec. Empty for plain batch trials.
    service: Dict[str, float] = field(default_factory=dict)
    #: Simulated seconds this trial covered (stabilization + measured +
    #: drain).
    sim_time_s: float = 0.0
    #: Wall-clock seconds the simulation took. The one field that is NOT
    #: deterministic in the spec; campaign determinism checks must ignore
    #: it (see ``deterministic_dict`` on ExperimentResult).
    wall_clock_s: float = 0.0
    #: Simulator throughput record: ``events_processed`` (deterministic —
    #: the kernel's executed-event count) and ``events_per_sec``
    #: (wall-clock derived, excluded from determinism checks alongside
    #: ``wall_clock_s``).
    timing: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "messages_sent": dict(self.messages_sent),
            "messages_received": dict(self.messages_received),
            "energy_j": dict(self.energy_j),
            "root_energy_j": dict(self.root_energy_j),
            "node_load": dict(self.node_load),
            "load_skew": self.load_skew,
            "planner": dict(self.planner),
            "survival": dict(self.survival),
            "attributes": {k: dict(v) for k, v in self.attributes.items()},
            "oracle": dict(self.oracle),
            "service": dict(self.service),
            "sim_time_s": self.sim_time_s,
            "wall_clock_s": self.wall_clock_s,
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(
        cls, data: Optional[Mapping[str, object]]
    ) -> Optional["TrialMetrics"]:
        if data is None:
            return None
        return cls(**{f: data[f] for f in cls.__dataclass_fields__ if f in data})

    @classmethod
    def collect(
        cls,
        census: "MessageCensus",
        energy,
        root: int,
        planner: Optional[Dict[str, int]] = None,
        sim_time_s: float = 0.0,
        wall_clock_s: float = 0.0,
        tracker: Optional["DeliveryTracker"] = None,
        attributes: Optional[Dict[str, Dict[str, float]]] = None,
        oracle: Optional[Dict[str, float]] = None,
        service: Optional[Dict[str, float]] = None,
        timing: Optional[Dict[str, float]] = None,
    ) -> "TrialMetrics":
        """Fold one trial's accounting objects into a metrics record.

        ``energy`` is the network's :class:`~repro.sim.energy.EnergyMeter`
        (typed loosely to keep this module free of an energy import cycle).
        ``tracker`` supplies the data-survival breakdown, evaluated at the
        end of the trial (``sim_time_s``). ``attributes``/``oracle`` carry
        the per-attribute counters and the query-oracle scorecard
        (:mod:`repro.experiments.oracle`).
        """
        root_e = energy.node_energy(root)
        return cls(
            messages_sent={
                str(kind): count
                for kind, count in sorted(
                    census.sent_by_kind().items(), key=lambda kv: kv[0].value
                )
            },
            messages_received={
                str(kind): count
                for kind, count in sorted(
                    census.received_by_kind().items(), key=lambda kv: kv[0].value
                )
            },
            energy_j=energy.component_totals_j(),
            root_energy_j={
                "radio_tx": root_e.radio_tx_nj / 1e9,
                "radio_rx": root_e.radio_rx_nj / 1e9,
                "flash_write": root_e.flash_write_nj / 1e9,
                "flash_read": root_e.flash_read_nj / 1e9,
            },
            node_load={str(n): load for n, load in census.node_loads().items()},
            load_skew=census.skew(),
            planner=dict(planner or {}),
            survival=(
                tracker.survival_breakdown(sim_time_s) if tracker is not None else {}
            ),
            attributes=dict(attributes or {}),
            oracle=dict(oracle or {}),
            service=dict(service or {}),
            sim_time_s=sim_time_s,
            wall_clock_s=wall_clock_s,
            timing=dict(timing or {}),
        )


@dataclass
class ReadingOutcome:
    """End-to-end fate of one produced sensor reading."""

    producer: int
    value: int
    produced_at: float
    intended_owner: Optional[int] = None
    stored_at: Optional[int] = None
    stored_time: Optional[float] = None
    #: attribute the reading belongs to (0 = the legacy single attribute).
    attr: int = 0

    @property
    def stored(self) -> bool:
        return self.stored_at is not None

    @property
    def stored_at_owner(self) -> bool:
        return self.stored and self.stored_at == self.intended_owner


@dataclass
class QueryOutcome:
    """End-to-end fate of one issued query."""

    query_id: int
    issued_at: float
    nodes_targeted: int = 0
    replies_received: int = 0
    tuples_expected: int = 0
    tuples_returned: int = 0
    answered_from_summaries: bool = False


class DeliveryTracker:
    """End-to-end success accounting for readings and queries (exp E6)."""

    def __init__(self) -> None:
        self.readings: List[ReadingOutcome] = []
        #: (producer, attr, value, produced_at) -> outcome awaiting storage.
        self._open: Dict[Tuple[int, int, int, float], ReadingOutcome] = {}
        self.queries: Dict[int, QueryOutcome] = {}
        #: closed downtime intervals per node: (failed_at, revived_at).
        self._downtime: Dict[int, List[Tuple[float, float]]] = {}
        #: nodes currently dead -> time of death.
        self._down_since: Dict[int, float] = {}

    # -- node lifecycle (failure injection) ------------------------------
    def node_failed(self, node: int, time: float) -> None:
        self._down_since.setdefault(node, time)

    def node_revived(self, node: int, time: float) -> None:
        started = self._down_since.pop(node, None)
        if started is not None:
            self._downtime.setdefault(node, []).append((started, time))

    def node_down(self, node: int, time: float) -> bool:
        """True when ``node`` is dark at ``time`` — its flash contents are
        orphaned (unreachable) for exactly these intervals."""
        since = self._down_since.get(node)
        if since is not None and time >= since:
            return True
        return any(lo <= time < hi for lo, hi in self._downtime.get(node, ()))

    def nodes_ever_failed(self) -> Set[int]:
        return set(self._down_since) | set(self._downtime)

    # -- readings --------------------------------------------------------
    def reading_produced(
        self,
        producer: int,
        value: int,
        time: float,
        intended_owner: Optional[int],
        attr: int = 0,
    ) -> ReadingOutcome:
        outcome = ReadingOutcome(
            producer=producer,
            value=value,
            produced_at=time,
            intended_owner=intended_owner,
            attr=attr,
        )
        self.readings.append(outcome)
        self._open[(producer, attr, value, time)] = outcome
        return outcome

    def reading_stored(
        self,
        producer: int,
        value: int,
        produced_at: float,
        stored_at: int,
        time: float,
        attr: int = 0,
    ) -> None:
        outcome = self._open.pop((producer, attr, value, produced_at), None)
        if outcome is not None:
            outcome.stored_at = stored_at
            outcome.stored_time = time

    def storage_success_rate(self) -> float:
        """Fraction of produced readings that were stored anywhere."""
        if not self.readings:
            return 0.0
        return sum(1 for r in self.readings if r.stored) / len(self.readings)

    def owner_hit_rate(self) -> float:
        """Of stored readings with a known intended owner, the fraction
        stored exactly there (paper: ~85%, rest fall back to the root)."""
        relevant = [
            r for r in self.readings if r.stored and r.intended_owner is not None
        ]
        if not relevant:
            return 0.0
        return sum(1 for r in relevant if r.stored_at_owner) / len(relevant)

    # -- data survival under churn ---------------------------------------
    def reading_retrievable(self, outcome: ReadingOutcome, time: float) -> bool:
        """A reading is retrievable at ``time`` iff it was stored and its
        storage node is not dark then. A killed node's flash contents are
        orphaned for as long as it stays down; they come back only if the
        node revives (flash is non-volatile)."""
        return outcome.stored and not self.node_down(outcome.stored_at, time)

    def retrieval_completeness(self, time: float) -> float:
        """Fraction of produced readings retrievable at ``time``."""
        if not self.readings:
            return 0.0
        retrievable = sum(1 for r in self.readings if self.reading_retrievable(r, time))
        return retrievable / len(self.readings)

    def survival_breakdown(self, time: float) -> Dict[str, float]:
        """The E14 data-survival record: what was produced, what got
        stored, what sits orphaned on dead flash, what a query issued at
        ``time`` could still reach."""
        produced = len(self.readings)
        stored = sum(1 for r in self.readings if r.stored)
        retrievable = sum(
            1 for r in self.readings if self.reading_retrievable(r, time)
        )
        return {
            "readings_produced": float(produced),
            "readings_stored": float(stored),
            "stored_on_dead_node": float(stored - retrievable),
            "retrievable": float(retrievable),
            "completeness": retrievable / produced if produced else 0.0,
            "nodes_failed": float(len(self.nodes_ever_failed())),
            "nodes_down_at_end": float(
                sum(1 for n in self.nodes_ever_failed() if self.node_down(n, time))
            ),
        }

    # -- queries ---------------------------------------------------------
    def query_issued(
        self, query_id: int, time: float, nodes_targeted: int
    ) -> QueryOutcome:
        outcome = QueryOutcome(
            query_id=query_id, issued_at=time, nodes_targeted=nodes_targeted
        )
        self.queries[query_id] = outcome
        return outcome

    def query_reply(self, query_id: int, tuples_returned: int) -> None:
        outcome = self.queries.get(query_id)
        if outcome is not None:
            outcome.replies_received += 1
            outcome.tuples_returned += tuples_returned

    def query_reply_rate(self) -> float:
        """Fraction of (query, node) reply obligations that came back."""
        targeted = sum(q.nodes_targeted for q in self.queries.values())
        if targeted == 0:
            return 0.0
        received = sum(
            min(q.replies_received, q.nodes_targeted) for q in self.queries.values()
        )
        return received / targeted
