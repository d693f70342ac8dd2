"""The per-tenant serving core: admission control, batching, caching.

Two layers, separable so the serving logic stays testable without an
event loop or a worker process:

* :class:`AnswerCache` — an LRU of recent query answers keyed on
  ``(attr, range bucket, index epoch)``. Requested ranges are quantized
  to bucket-aligned ranges (the underlying query is issued at bucket
  granularity and per-request answers are filtered back down, so
  answers stay exact), which lets nearby requests share one radio
  query. The epoch in the key is the basestation's remap epoch: the
  moment a remap disseminates new indexes every cached answer
  self-invalidates — the same trick as the source-salted result cache.
* :class:`TenantService` — the synchronous serving core around one
  resident :class:`~repro.service.deployment.Deployment`: per-tenant
  admission control (a bounded queue; requests beyond it are shed with
  an explicit status, never silently dropped), per-window batching
  (queued misses coalesce by cache bucket and at most
  ``batch_capacity`` basestation queries go out per batch), and the
  latency/staleness/shed accounting exported as service metrics.

Two drivers run a ``TenantService``: each worker process of
:class:`~repro.service.shard.ShardedGateway` hosts one per tenant it
owns, and :func:`~repro.service.loadtest.drive_load` replays a batch
trial's offered load through one.

All serving metrics are *simulated-time* quantities (arrival-to-answer
latency on the deployment clock, answer staleness, shed counts), so a
load test's metrics are a pure function of the spec — they ride the
campaign pipeline's determinism checks like every other metric.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import ValueDomain
from repro.core.messages import WireReading
from repro.experiments.runner import ExperimentSpec


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ServiceLimits:
    """Per-tenant serving knobs (defaults mirror the spec fields)."""

    #: admission-control bound: queued (unanswered) requests beyond this
    #: are shed with an explicit status.
    queue_depth: int = 8
    #: basestation queries issued per batch window at most; queued
    #: requests beyond it wait for the next window.
    batch_capacity: int = 4
    #: buckets the value domain is quantized into for cache keys and
    #: query coalescing (0 or 1 disables quantization).
    cache_buckets: int = 16
    #: answer-cache entry bound (LRU beyond it).
    cache_capacity: int = 256

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "ServiceLimits":
        return cls(
            queue_depth=spec.service_queue_depth,
            batch_capacity=spec.service_batch_capacity,
            cache_buckets=spec.service_cache_buckets,
        )


@dataclass
class CacheEntry:
    """One cached bucket answer."""

    readings: List[WireReading]
    #: simulated time the answer was assembled (staleness baseline).
    stored_at: float
    #: remap epoch the answer was computed under.
    epoch: int


class AnswerCache:
    """LRU answer cache keyed ``(attr, bucket_lo, bucket_hi, epoch)``."""

    def __init__(self, buckets: int = 16, capacity: int = 256):
        self.buckets = buckets
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int, int, int], CacheEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def bucket_range(
        self, domain: ValueDomain, lo: int, hi: int
    ) -> Tuple[int, int]:
        """Quantize ``[lo, hi]`` outward to bucket-aligned bounds.

        The widened range is what actually gets queried (and cached);
        answers are filtered back to the requested sub-range, so caching
        never changes what a client receives.
        """
        if self.buckets <= 1:
            return domain.lo, domain.hi
        width = max(1, -(-domain.size // self.buckets))
        blo = domain.lo + ((lo - domain.lo) // width) * width
        bhi = domain.lo + ((hi - domain.lo) // width) * width + width - 1
        return blo, min(domain.hi, bhi)

    def get(
        self, attr: int, blo: int, bhi: int, epoch: int
    ) -> Optional[CacheEntry]:
        entry = self._entries.get((attr, blo, bhi, epoch))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((attr, blo, bhi, epoch))
        self.hits += 1
        return entry

    def put(
        self,
        attr: int,
        blo: int,
        bhi: int,
        epoch: int,
        readings: List[WireReading],
        stored_at: float,
    ) -> CacheEntry:
        entry = CacheEntry(list(readings), stored_at, epoch)
        self._entries[(attr, blo, bhi, epoch)] = entry
        self._entries.move_to_end((attr, blo, bhi, epoch))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry


@dataclass
class ServiceTicket:
    """One client request's fate, in the clients' own terms."""

    seq: int
    tenant: str
    attr: int
    lo: int
    hi: int
    #: simulated arrival time (latency baseline).
    arrival: float
    status: str = "pending"  # pending -> ok, or shed
    readings: List[WireReading] = field(default_factory=list)
    latency_s: float = 0.0
    cache_hit: bool = False
    #: age of the served answer at serving time (0 for fresh answers).
    staleness_s: float = 0.0
    #: remap epoch the answer was computed under (-1 until answered).
    epoch: int = -1
    #: bucket-aligned range actually queried (set once admitted).
    bucket: Optional[Tuple[int, int]] = None


class TenantService:
    """The synchronous serving core around one resident deployment.

    ``submit`` admits (or sheds, or answers from cache) one request;
    ``process_batch`` drains up to ``batch_capacity`` coalesced bucket
    queries through the deployment and advances the kernel through one
    reply window. Single-threaded by design: a shard worker calls both
    from its command loop, the batch load driver from a plain loop.
    """

    def __init__(
        self,
        name: str,
        deployment,
        limits: Optional[ServiceLimits] = None,
    ):
        self.name = name
        self.deployment = deployment
        self.limits = limits or ServiceLimits.from_spec(deployment.spec)
        self.cache = AnswerCache(
            buckets=self.limits.cache_buckets,
            capacity=self.limits.cache_capacity,
        )
        self._queue: List[ServiceTicket] = []
        self._seq = 0
        self.offered = 0
        self.served = 0
        self.shed = 0
        self.cache_hits = 0
        self.queries_issued = 0
        self.coalesced = 0
        self.batches = 0
        self.latencies: List[float] = []
        self.staleness: List[float] = []
        self.epochs_seen: Set[int] = set()

    @property
    def backlog(self) -> int:
        """Admitted requests still waiting for a batch window."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        arrival: Optional[float] = None,
    ) -> ServiceTicket:
        """Admit one request: answer it from cache, queue it for the
        next batch, or shed it.

        Malformed requests (unregistered attribute, out-of-domain or
        empty range) raise ``ValueError`` — rejection is an error the
        client hears about, shedding is an overload signal; the two are
        never conflated. ``arrival`` backdates the request (the load
        driver stamps precomputed arrival times that may fall inside a
        reply-window advance); it is clamped to the deployment clock.
        """
        dep = self.deployment
        domain = dep.config.domain_of(attr)  # unknown attr raises here
        lo = domain.lo if lo is None else int(lo)
        hi = domain.hi if hi is None else int(hi)
        if hi < lo or lo not in domain or hi not in domain:
            raise ValueError(
                f"malformed request: value range [{lo}, {hi}] outside "
                f"attribute {attr}'s domain [{domain.lo}, {domain.hi}]"
            )
        now = dep.now
        if arrival is None or arrival > now:
            arrival = now
        self._seq += 1
        self.offered += 1
        ticket = ServiceTicket(
            seq=self._seq,
            tenant=self.name,
            attr=attr,
            lo=lo,
            hi=hi,
            arrival=arrival,
        )
        blo, bhi = self.cache.bucket_range(domain, lo, hi)
        ticket.bucket = (blo, bhi)
        entry = self.cache.get(attr, blo, bhi, dep.index_epoch)
        if entry is not None:
            self._answer(ticket, entry, cache_hit=True)
            return ticket
        if len(self._queue) >= self.limits.queue_depth:
            ticket.status = "shed"
            self.shed += 1
            return ticket
        self._queue.append(ticket)
        return ticket

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def process_batch(self) -> List[ServiceTicket]:
        """Serve queued requests: coalesce by bucket, issue up to
        ``batch_capacity`` basestation queries, advance the kernel one
        reply window, answer everything those queries cover."""
        if not self._queue:
            return []
        dep = self.deployment
        groups: "OrderedDict[Tuple[int, Tuple[int, int]], List[ServiceTicket]]" = (
            OrderedDict()
        )
        for ticket in self._queue:
            groups.setdefault((ticket.attr, ticket.bucket), []).append(ticket)
        taken = list(groups.items())[: self.limits.batch_capacity]
        epoch = dep.index_epoch
        issued = []
        for (attr, (blo, bhi)), tickets in taken:
            result = dep.query(attr=attr, lo=blo, hi=bhi, wait=False)
            issued.append(((attr, blo, bhi), result, tickets))
        self.batches += 1
        self.queries_issued += len(issued)
        dep.advance(dep.config.query_reply_window)
        answered: List[ServiceTicket] = []
        for (attr, blo, bhi), result, tickets in issued:
            entry = self.cache.put(
                attr, blo, bhi, epoch, result.readings, stored_at=dep.now
            )
            self.coalesced += len(tickets) - 1
            for ticket in tickets:
                self._answer(ticket, entry, cache_hit=False)
                answered.append(ticket)
        served = {id(t) for t in answered}
        self._queue = [t for t in self._queue if id(t) not in served]
        return answered

    def _answer(
        self, ticket: ServiceTicket, entry: CacheEntry, cache_hit: bool
    ) -> None:
        now = self.deployment.now
        ticket.readings = [
            r for r in entry.readings if ticket.lo <= r[0] <= ticket.hi
        ]
        ticket.status = "ok"
        ticket.cache_hit = cache_hit
        ticket.latency_s = max(0.0, now - ticket.arrival)
        ticket.staleness_s = max(0.0, now - entry.stored_at)
        ticket.epoch = entry.epoch
        self.served += 1
        if cache_hit:
            self.cache_hits += 1
        self.latencies.append(ticket.latency_s)
        self.staleness.append(ticket.staleness_s)
        self.epochs_seen.add(entry.epoch)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """The serving scorecard, JSON-ready (string keys, float values)
        — what ``TrialMetrics.service`` carries for E16 trials."""
        served = self.served
        return {
            "requests_offered": float(self.offered),
            "requests_served": float(served),
            "requests_shed": float(self.shed),
            "shed_rate": self.shed / self.offered if self.offered else 0.0,
            "cache_hits": float(self.cache_hits),
            "cache_hit_rate": self.cache_hits / served if served else 0.0,
            "queries_issued": float(self.queries_issued),
            "coalesced": float(self.coalesced),
            "batches": float(self.batches),
            "backlog": float(len(self._queue)),
            "latency_mean_s": (
                sum(self.latencies) / len(self.latencies) if self.latencies else 0.0
            ),
            "latency_p50_s": percentile(self.latencies, 0.50),
            "latency_p95_s": percentile(self.latencies, 0.95),
            "latency_p99_s": percentile(self.latencies, 0.99),
            "staleness_mean_s": (
                sum(self.staleness) / len(self.staleness) if self.staleness else 0.0
            ),
            "staleness_p95_s": percentile(self.staleness, 0.95),
            "epochs_seen": float(len(self.epochs_seen)),
        }
