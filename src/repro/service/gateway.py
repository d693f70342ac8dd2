"""The per-tenant serving core: a serving front and a window executor.

Three parts, separable so the serving logic stays testable without an
event loop or a worker process:

* :class:`AnswerCache` — an LRU of recent query answers keyed on
  ``(attr, range bucket, index epoch)``. Requested ranges are quantized
  to bucket-aligned ranges (the underlying query is issued at bucket
  granularity and per-request answers are filtered back down, so
  answers stay exact), which lets nearby requests share one radio
  query. The epoch in the key is the basestation's remap epoch: the
  moment a remap disseminates new indexes every cached answer
  self-invalidates — the same trick as the source-salted result cache.
* :class:`ServingFront` — everything a request meets before the
  network: validation, bucket quantization, the answer cache,
  per-tenant admission control (a bounded queue; requests beyond it are
  shed with an explicit status, never silently dropped), grouping
  queued misses into windows of at most ``batch_capacity`` bucket
  queries, and the latency/staleness/shed accounting exported as
  service metrics. It holds no deployment: it settles requests against
  its record of the tenant's clock and index epoch, which each window's
  result moves on.
* :func:`run_window` — the window executor: one basestation query per
  bucket group of a window, then one reply window of simulated time.

:class:`TenantService` is a front and its executor in one process,
around one resident :class:`~repro.service.deployment.Deployment`:
:func:`~repro.service.loadtest.drive_load` replays a batch trial's
offered load through one. :class:`~repro.service.shard.ShardedGateway`
keeps one front per tenant in the parent and runs only the executor in
its worker processes, so a cache hit never crosses a pipe.

All serving metrics are *simulated-time* quantities (arrival-to-answer
latency on the deployment clock, answer staleness, shed counts), so a
load test's metrics are a pure function of the spec — they ride the
campaign pipeline's determinism checks like every other metric.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.messages import WireReading


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: List[float], q: float) -> float:
    """:func:`percentile` of an already sorted list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _catch_up(ordered: List[float], values: List[float]) -> List[float]:
    """Extend ``ordered``, a sorted copy of a prefix of the append-only
    ``values``, to a sorted copy of all of it. Timsort takes the sorted
    prefix as one run and merges the new values into it, so a snapshot
    after k more requests costs a linear merge, not a full sort."""
    if len(ordered) < len(values):
        ordered.extend(values[len(ordered) :])
        ordered.sort()
    return ordered


@dataclass
class ServiceLimits:
    """Per-tenant serving limits. Every served deployment, batch trial
    or gateway, runs these defaults; tests pass tighter ones to exercise
    shedding, windowing and the cache."""

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


#: One bucket query of a window: ``(attr, bucket_lo, bucket_hi)``.
Group = Tuple[int, int, int]

#: What the executor returns for one window: the index epoch before its
#: advance (the cache key of its answers), the clock after the advance,
#: the epoch after it, and each group's bucket readings in window order.
WindowResult = Tuple[int, float, int, List[List[WireReading]]]


class ServingFront:
    """One tenant's serving front: admission, cache and accounting.

    ``submit`` answers one request from the cache, queues it for a
    window, or sheds it; ``windows`` groups the queued misses into
    windows for the executor, and ``settle`` answers them from a
    window's result. ``now`` and ``epoch`` are the tenant's simulated
    clock and index epoch as the last window (or the deployment's boot)
    left them: the front never advances the clock itself.
    """

    def __init__(
        self,
        name: str,
        config: ScoopConfig,
        limits: ServiceLimits,
        now: float = 0.0,
        epoch: int = 0,
    ):
        self.name = name
        self.config = config
        self.limits = limits
        self.now = now
        self.epoch = epoch
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
        #: sorted copies of the two lists as of the last snapshot.
        self._sorted_latencies: List[float] = []
        self._sorted_staleness: List[float] = []
        self.epochs_seen: Set[int] = set()

    @property
    def backlog(self) -> int:
        """Admitted requests still waiting for their window's answer."""
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
        next window, or shed it.

        Malformed requests (unregistered attribute, out-of-domain or
        empty range) raise ``ValueError`` — rejection is an error the
        client hears about, shedding is an overload signal; the two are
        never conflated. ``arrival`` backdates the request (the load
        driver stamps precomputed arrival times that may fall inside a
        reply-window advance); it is clamped to the tenant's clock.
        """
        domain = self.config.domain_of(attr)  # unknown attr raises here
        lo = domain.lo if lo is None else int(lo)
        hi = domain.hi if hi is None else int(hi)
        if hi < lo or lo not in domain or hi not in domain:
            raise ValueError(
                f"malformed request: value range [{lo}, {hi}] outside "
                f"attribute {attr}'s domain [{domain.lo}, {domain.hi}]"
            )
        now = self.now
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
        entry = self.cache.get(attr, blo, bhi, self.epoch)
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
    # Windows
    # ------------------------------------------------------------------
    def windows(self) -> List[List[Group]]:
        """The queued misses as windows: one group per distinct
        ``(attr, bucket)`` in arrival order of its first request, at most
        ``batch_capacity`` groups per window."""
        groups = list(dict.fromkeys((t.attr, *t.bucket) for t in self._queue))
        size = self.limits.batch_capacity
        return [groups[i : i + size] for i in range(0, len(groups), size)]

    def settle(self, window: List[Group], result: WindowResult) -> List[ServiceTicket]:
        """Cache each group's readings under the window's epoch and answer
        every queued request the window covers; the clock and epoch move
        to where the window left them."""
        epoch, self.now, self.epoch, readings = result
        self.batches += 1
        self.queries_issued += len(window)
        waiting: Dict[Group, List[ServiceTicket]] = {}
        for ticket in self._queue:
            waiting.setdefault((ticket.attr, *ticket.bucket), []).append(ticket)
        answered: List[ServiceTicket] = []
        for group, group_readings in zip(window, readings):
            entry = self.cache.put(*group, epoch, group_readings, stored_at=self.now)
            tickets = waiting[group]
            self.coalesced += len(tickets) - 1
            for ticket in tickets:
                self._answer(ticket, entry, cache_hit=False)
                answered.append(ticket)
        self._queue = [t for t in self._queue if t.status == "pending"]
        return answered

    def abandon(self) -> None:
        """Drop the queued misses: the worker that was to run their
        windows died, and each has failed typed, neither served nor
        shed."""
        self._queue = []

    def _answer(
        self, ticket: ServiceTicket, entry: CacheEntry, cache_hit: bool
    ) -> None:
        now = self.now
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
        — what ``TrialMetrics.service`` carries for E16 trials. It runs
        on the serving parent's event loop for every ``service_stats()``,
        so the percentiles read sorted copies of the lists that each call
        extends by the values served since the last one; the means sum
        the lists in arrival order."""
        served = self.served
        latencies = _catch_up(self._sorted_latencies, self.latencies)
        staleness = _catch_up(self._sorted_staleness, self.staleness)
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
            "latency_p50_s": _nearest_rank(latencies, 0.50),
            "latency_p95_s": _nearest_rank(latencies, 0.95),
            "latency_p99_s": _nearest_rank(latencies, 0.99),
            "staleness_mean_s": (
                sum(self.staleness) / len(self.staleness) if self.staleness else 0.0
            ),
            "staleness_p95_s": _nearest_rank(staleness, 0.95),
            "epochs_seen": float(len(self.epochs_seen)),
        }


def run_window(deployment, window: Sequence[Group]) -> WindowResult:
    """The window executor: issue one basestation query per group, advance
    the deployment one reply window, and report what
    :meth:`ServingFront.settle` needs."""
    epoch = deployment.index_epoch
    results = [
        deployment.query(attr=attr, lo=blo, hi=bhi, wait=False)
        for attr, blo, bhi in window
    ]
    deployment.advance(deployment.config.query_reply_window)
    return epoch, deployment.now, deployment.index_epoch, [r.readings for r in results]


class TenantService(ServingFront):
    """A front and its window executor in one process, around one
    resident deployment: the serving core E16's batch trials run.

    ``process_batch`` runs the first window of the queued misses. The
    driver moves the deployment's clock between windows too, so
    ``submit`` reads the clock and epoch from the deployment first.
    """

    def __init__(
        self,
        name: str,
        deployment,
        limits: Optional[ServiceLimits] = None,
    ):
        super().__init__(name, deployment.config, limits or ServiceLimits())
        self.deployment = deployment

    def submit(
        self,
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        arrival: Optional[float] = None,
    ) -> ServiceTicket:
        self.now = self.deployment.now
        self.epoch = self.deployment.index_epoch
        return super().submit(attr, lo, hi, arrival)

    def process_batch(self) -> List[ServiceTicket]:
        """Serve the first window: issue up to ``batch_capacity`` bucket
        queries, advance one reply window, answer what they cover."""
        windows = self.windows()
        if not windows:
            return []
        return self.settle(windows[0], run_window(self.deployment, windows[0]))
