"""Deterministic offered-load generation for the E16 serving scenario.

A load test must be a pure function of the spec to ride the campaign
pipeline (persistent cache, jobs=1 ≡ jobs=4 bit-identity), so nothing
here touches wall clocks or the simulation's own RNG stream:

* :func:`build_arrivals` precomputes the whole request trace — Poisson
  arrivals at ``spec.service_qps`` over the measured phase, each picking
  an attribute and a value range from a small "hot set" (cacheable
  repeats) or a cold uniform draw — from a dedicated ``random.Random``
  seeded off the spec alone. Drawing from a separate stream keeps the
  simulated network's trajectory byte-identical whatever the offered
  load.
* :func:`drive_load` replays that trace against one resident
  :class:`~repro.service.deployment.Deployment` through a
  :class:`~repro.service.gateway.TenantService`: requests are submitted
  as the clock reaches their arrival times and queued misses are batched
  once per query interval — the same serving front and window executor
  the sharded gateway splits between its parent and a worker, minus the
  sockets and processes.

The resulting scorecard lands on ``deployment.service_stats`` and is
exported as ``TrialMetrics.service``.

A second, wall-clock driver lives alongside: the coroutine
:func:`drive_socket_load` opens N *real* concurrent
:class:`~repro.service.client.AsyncScoopClient` connections against a
running :class:`~repro.service.server.ScoopServer`, in the caller's
event loop, and replays deterministic per-client programs
(:func:`build_client_program`) — the load path the sharded serving
stack is benchmarked and CI-gated on. Its per-tenant answer transcripts
are deterministic for a fixed program (each tenant is driven by one
sequential connection), which is what the ``--workers 1`` ≡
``--workers 4`` identity gates compare.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentSpec

#: Salt for the load-trace RNG stream — any spec-derived seed must not
#: collide with the simulation seed itself.
_ARRIVAL_SALT = 0xE16

#: Hot ranges per attribute; ~60% of requests re-ask one of these, which
#: is what gives the answer cache something to hit.
_HOT_RANGES = 6
_HOT_PROB = 0.6

#: A drain guard: after the measured phase the driver flushes the
#: backlog with at most this many extra batch windows.
_MAX_FLUSH_BATCHES = 64


@dataclass(frozen=True)
class Request:
    """One offered request in the precomputed trace."""

    time: float
    attr: int
    lo: int
    hi: int


def build_arrivals(spec: ExperimentSpec) -> List[Request]:
    """Precompute the offered-load trace for ``spec``.

    Poisson arrivals at ``spec.service_qps`` across the measured phase
    (stabilization → stabilization + duration), drawn from a dedicated
    RNG seeded off the spec — the simulation's RNG stream is never
    touched, so the network trajectory is independent of offered load.
    """
    qps = spec.service_qps
    if qps <= 0:
        return []
    config = spec.scoop
    rng = random.Random(spec.seed * 1_000_003 + _ARRIVAL_SALT)
    # Hot set first (fixed draw order: trace is stable under qps sweeps
    # only in distribution, but fully deterministic per spec).
    hot: Dict[int, List[Tuple[int, int]]] = {}
    for attr in config.attribute_ids:
        domain = config.domain_of(attr)
        width = max(1, int(domain.size * rng.uniform(0.02, 0.10)))
        ranges = []
        for _ in range(_HOT_RANGES):
            lo = rng.randint(domain.lo, max(domain.lo, domain.hi - width))
            ranges.append((lo, min(domain.hi, lo + width)))
        hot[attr] = ranges
    n_attrs = spec.query_plan.n_attributes
    start = config.stabilization
    end = config.stabilization + config.duration
    out: List[Request] = []
    t = start
    while True:
        t += rng.expovariate(qps)
        if t >= end:
            break
        attr = rng.randrange(n_attrs) if n_attrs > 1 else 0
        if rng.random() < _HOT_PROB:
            lo, hi = hot[attr][rng.randrange(_HOT_RANGES)]
        else:
            domain = config.domain_of(attr)
            a = rng.randint(domain.lo, domain.hi)
            b = rng.randint(domain.lo, domain.hi)
            lo, hi = (a, b) if a <= b else (b, a)
        out.append(Request(time=t, attr=attr, lo=lo, hi=hi))
    return out


def drive_load(deployment) -> Dict[str, float]:
    """Replay the spec's offered-load trace against a live deployment.

    Walks the measured phase one query interval at a time: requests
    whose arrival times have been reached are submitted (cache hits
    answer instantly, overload sheds explicitly), then queued misses are
    batched through the basestation. After the phase, the backlog is
    flushed with bounded extra batches so every admitted request is
    answered before the trial drains.

    Attaches the scorecard to ``deployment.service_stats`` and returns it.
    """
    from repro.service.gateway import TenantService

    spec = deployment.spec
    config = deployment.config
    arrivals = build_arrivals(spec)
    service = TenantService("batch", deployment)
    end = config.stabilization + config.duration
    i = 0
    boundary = config.stabilization
    while boundary < end:
        boundary = min(boundary + config.query_interval, end)
        while i < len(arrivals) and arrivals[i].time <= boundary:
            req = arrivals[i]
            deployment.run_until(req.time)
            service.submit(req.attr, req.lo, req.hi, arrival=req.time)
            i += 1
        deployment.run_until(boundary)
        service.process_batch()
    flushes = 0
    while service.backlog and flushes < _MAX_FLUSH_BATCHES:
        service.process_batch()
        flushes += 1
    stats = service.snapshot()
    stats["qps_offered"] = service.offered / config.duration
    stats["qps_served"] = service.served / config.duration
    deployment.service_stats = stats
    return stats


# ----------------------------------------------------------------------
# Real-socket concurrent-client driving (the sharded serving load path)
# ----------------------------------------------------------------------

#: Salt for per-client program RNG streams (distinct from the arrival
#: trace salt: the two must never collide on a seed).
_PROGRAM_SALT = 0xC11


def build_client_program(
    requests: int,
    domain: Tuple[int, int],
    seed: int,
    attrs: Sequence[int] = (0,),
) -> List[Tuple[int, int, int]]:
    """One client's deterministic request program: ``requests`` tuples
    of ``(attr, lo, hi)`` from a dedicated RNG, with the same hot-set /
    cold-draw mix as :func:`build_arrivals` so the answer cache gets
    realistic re-asks. A pure function of ``(requests, domain, seed)`` —
    the fixed client program the shard-determinism gates replay at every
    worker count."""
    dlo, dhi = domain
    rng = random.Random(seed * 1_000_003 + _PROGRAM_SALT)
    width = max(1, int((dhi - dlo + 1) * rng.uniform(0.02, 0.10)))
    hot = []
    for _ in range(_HOT_RANGES):
        lo = rng.randint(dlo, max(dlo, dhi - width))
        hot.append((lo, min(dhi, lo + width)))
    out: List[Tuple[int, int, int]] = []
    for _ in range(requests):
        attr = attrs[rng.randrange(len(attrs))] if len(attrs) > 1 else attrs[0]
        if rng.random() < _HOT_PROB:
            lo, hi = hot[rng.randrange(_HOT_RANGES)]
        else:
            a = rng.randint(dlo, dhi)
            b = rng.randint(dlo, dhi)
            lo, hi = (a, b) if a <= b else (b, a)
        out.append((attr, lo, hi))
    return out


def answers_digest(answers: Dict[str, List[Dict[str, object]]]) -> str:
    """Canonical digest of a per-tenant answer transcript — what the
    worker-count identity gates compare. Transcripts hold each answer's
    wire dict without its ``shard`` field, the one legitimately
    placement-dependent part of an answer."""
    canonical = json.dumps(
        {t: answers[t] for t in sorted(answers)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


async def drive_socket_load(
    host: str,
    port: int,
    clients: int = 2,
    requests: int = 40,
    seed: int = 1,
    domain: Optional[Tuple[int, int]] = None,
    keep_answers: bool = True,
    retries: Optional[int] = None,
    chaos: Optional[Callable[[], Optional[str]]] = None,
) -> Dict[str, object]:
    """Drive a running server from ``clients`` real concurrent TCP
    connections (one :class:`AsyncScoopClient` coroutine each, gathered
    in the caller's event loop).

    A probe connection reads the tenants first; with ``domain=None`` it
    also makes one whole-domain query on ``tenants[0]``, which is part
    of that tenant's stream. Client ``i`` is then pinned to tenant
    ``tenants[i % len(tenants)]`` and replays
    :func:`build_client_program` sequentially (each request awaits its
    answer), so with ``clients <= tenants`` every tenant sees exactly
    one ordered request stream — the regime in which answers are
    bit-identical across worker counts. Sheds and malformed rejections
    are counted per request, never raised; any other fault counts the
    client as ``failed`` and ends its program.

    ``chaos`` is the fault-injection hook: a callable (e.g.
    ``gateway.chaos_kill_worker``) fired exactly once, inline, when
    ``ok + shed`` first reaches a third of the offered load — mid-run,
    so in-flight and queued requests are on the wire when the worker
    dies. ``retries`` overrides the clients' retry budget against the
    resulting ``retry`` faults (chaos runs need enough to ride out a
    worker reboot); the total resends land in ``counts["retried"]``.

    Returns a JSON-ready report: outcome counts, wall-clock throughput,
    the per-tenant answer transcripts (``keep_answers``) and their
    :func:`answers_digest`, the server's end-of-run stats (per-shard
    scorecards + protocol counters, probed after every client has
    finished), and a ``chaos`` record of whether (and which shard) the
    hook killed.
    """
    from repro.service.api import MalformedRequestError, ServiceFault, ShedError
    from repro.service.client import AsyncScoopClient

    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    async with AsyncScoopClient(host, port, name="loadtest-probe") as probe:
        tenants = probe.tenants
        workers = probe.workers
        if domain is None:
            # Probe the domain from one whole-domain query.
            first = await probe.query(tenant=tenants[0])
            domain = (first.lo, first.hi)

    answers: Dict[str, List[Dict[str, object]]] = {t: [] for t in tenants}
    counts = {"ok": 0, "shed": 0, "malformed": 0, "failed": 0, "retried": 0}
    errors: List[str] = []
    chaos_threshold = max(1, (clients * requests) // 3)
    chaos_record: Dict[str, object] = {"fired": False, "killed": None}

    async def one_client(index: int) -> None:
        tenant = tenants[index % len(tenants)]
        program = build_client_program(requests, domain, seed=seed + index)
        kwargs = {} if retries is None else {"retries": retries}
        client = AsyncScoopClient(host, port, name=f"loadtest-{index}", **kwargs)
        try:
            async with client:
                for attr, lo, hi in program:
                    try:
                        answer = await client.query(
                            tenant=tenant, attr=attr, lo=lo, hi=hi
                        )
                    except ShedError:
                        counts["shed"] += 1
                    except MalformedRequestError:
                        counts["malformed"] += 1
                        continue
                    else:
                        wire = answer.to_wire()
                        del wire["shard"]
                        counts["ok"] += 1
                        answers[tenant].append(wire)
                    if (
                        chaos is not None
                        and not chaos_record["fired"]
                        and counts["ok"] + counts["shed"] >= chaos_threshold
                    ):
                        chaos_record["fired"] = True
                        chaos_record["killed"] = chaos()
        except ServiceFault as exc:
            counts["failed"] += 1
            errors.append(f"client {index}: {exc.code}: {exc}")
        finally:
            counts["retried"] += client.retries_used

    started = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(clients)))
    elapsed = time.perf_counter() - started

    async with AsyncScoopClient(host, port, name="loadtest-stats") as reporter:
        stats = await reporter.stats()

    report: Dict[str, object] = {
        "clients": clients,
        "requests_per_client": requests,
        "tenants": tenants,
        "workers": workers,
        "seed": seed,
        "counts": dict(counts),
        "errors": errors,
        "elapsed_s": elapsed,
        "qps": (counts["ok"] + counts["shed"]) / elapsed if elapsed > 0 else 0.0,
        "answers_digest": answers_digest(answers),
        "stats": stats.to_wire(),
        "chaos": chaos_record,
    }
    if keep_answers:
        report["answers"] = answers
    return report
