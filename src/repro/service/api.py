"""The public, versioned service API: the only types that cross the wire.

Every request/response that leaves the serving layer is one of the
frozen dataclasses here — :class:`QueryRequest` in, :class:`QueryAnswer`
(or :class:`ServiceError`) out, :class:`ServiceStats` for telemetry.
Raw gateway dicts and :class:`~repro.service.gateway.ServiceTicket`\\ s
never escape ``repro.service``; a grep-enforced test
(``tests/unit/test_api_boundary.py``) keeps it that way.

Each type's ``to_wire`` / ``from_wire`` pair is its payload in the
framed protocol of :mod:`repro.service.protocol`, the one transport,
spoken by :class:`~repro.service.client.AsyncScoopClient`.

Failure surfaces as *typed exceptions*, never as strings for callers to
pattern-match: overload sheds raise :class:`ShedError`, client mistakes
raise :class:`MalformedRequestError`, version skew raises
:class:`ProtocolVersionError`, framing violations raise
:class:`ProtocolError`, and a shard mid-respawn raises the *retryable*
:class:`ShardRestartingError`. :func:`error_to_exception` /
:func:`exception_to_error` map between exceptions and their wire form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Type

#: Version of the service API and wire protocol. Clients send it in
#: their hello; servers refuse (with :class:`ProtocolVersionError`) any
#: hello whose version they do not speak. Bump on any incompatible
#: change to the frame layout or the payload schemas below.
PROTOCOL_VERSION = 1

#: Answers truncate their inline reading list at this many tuples (the
#: full count still rides in ``n_readings``), which bounds a RESPONSE
#: frame's size whatever the query's range.
MAX_WIRE_READINGS = 50


# ----------------------------------------------------------------------
# Typed exceptions
# ----------------------------------------------------------------------
class ServiceFault(Exception):
    """Base of every typed service failure.

    ``code`` is the stable wire identifier (``shed``, ``malformed``,
    ``version``, ``protocol``, ``unavailable``); ``seq`` correlates the
    failure to the request that caused it (0 for connection-level
    faults).
    """

    code = "error"

    def __init__(self, message: str, seq: int = 0) -> None:
        super().__init__(message)
        self.seq = seq


class ShedError(ServiceFault):
    """The service is overloaded and shed this request.

    An overload signal, not a client mistake — back off and retry.
    """

    code = "shed"


class MalformedRequestError(ServiceFault):
    """The request itself was invalid (unknown tenant/attribute,
    out-of-domain or empty range, unparseable payload)."""

    code = "malformed"


class ProtocolVersionError(ServiceFault):
    """Client and server do not share a protocol version."""

    code = "version"


class ProtocolError(ServiceFault):
    """The byte stream violated the framing protocol (oversize frame,
    unknown frame type, malformed payload)."""

    code = "protocol"


class ServiceUnavailableError(ServiceFault):
    """The service exists but cannot answer (shard down, gateway
    closed)."""

    code = "unavailable"


class ShardRestartingError(ServiceFault):
    """The tenant's shard lost its worker and is coming back (respawn
    in progress, or its tenants are being re-placed onto surviving
    shards).

    *Retryable*: unlike :class:`ServiceUnavailableError` this is a
    transient condition — back off briefly and resend the same request.
    :class:`~repro.service.client.AsyncScoopClient` does exactly that,
    with a capped exponential backoff, before surfacing the fault.
    The wire code is additive (old clients degrade it to the base
    :class:`ServiceFault`), so it needs no protocol version bump.
    """

    code = "retry"


#: Wire code -> exception class (the inverse of each class's ``code``).
_FAULTS: Dict[str, Type[ServiceFault]] = {
    exc.code: exc
    for exc in (
        ShedError,
        MalformedRequestError,
        ProtocolVersionError,
        ProtocolError,
        ServiceUnavailableError,
        ShardRestartingError,
    )
}


# ----------------------------------------------------------------------
# Request / answer / error / stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """One range query, in the client's own terms.

    ``lo``/``hi`` of ``None`` default to the attribute's domain bounds
    server-side. ``seq`` is the connection-scoped correlation id; clients
    stamp it, callers constructing requests by hand may leave it 0.
    """

    tenant: str = "tenant0"
    attr: int = 0
    lo: Optional[int] = None
    hi: Optional[int] = None
    seq: int = 0

    def to_wire(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "attr": self.attr,
            "lo": self.lo,
            "hi": self.hi,
            "seq": self.seq,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "QueryRequest":
        try:
            return cls(
                tenant=str(data.get("tenant", "tenant0")),
                attr=int(data.get("attr", 0)),
                lo=None if data.get("lo") is None else int(data["lo"]),
                hi=None if data.get("hi") is None else int(data["hi"]),
                seq=int(data.get("seq", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise MalformedRequestError(f"bad query request: {exc}") from None


@dataclass(frozen=True)
class QueryAnswer:
    """One answered (or shed) request, the only response type.

    ``status`` is ``"ok"`` or ``"shed"``; clients never see the string —
    :class:`~repro.service.client.AsyncScoopClient` raises
    :class:`ShedError` instead. ``readings`` carries at most :data:`MAX_WIRE_READINGS`
    ``(value, time, node)`` tuples; ``n_readings`` is the untruncated
    count. ``shard`` names the worker that served the answer —
    diagnostic only, and the one field that depends on placement, so
    :func:`~repro.service.loadtest.answers_digest` transcripts drop it.
    """

    tenant: str
    seq: int
    attr: int
    lo: int
    hi: int
    status: str = "ok"
    readings: Tuple[Tuple[int, float, int], ...] = ()
    n_readings: int = 0
    latency_s: float = 0.0
    cache_hit: bool = False
    staleness_s: float = 0.0
    epoch: int = -1
    shard: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_ticket(
        cls, ticket: Any, shard: str = "", seq: Optional[int] = None
    ) -> "QueryAnswer":
        """Fold one service-internal ticket into its public form, under
        ``seq`` (the request's correlation id) when given, else the
        ticket's own. The ticket's readings are ``(value, time, node)``
        tuples already."""
        return cls(
            tenant=ticket.tenant,
            seq=ticket.seq if seq is None else seq,
            attr=ticket.attr,
            lo=ticket.lo,
            hi=ticket.hi,
            status=ticket.status,
            readings=tuple(ticket.readings[:MAX_WIRE_READINGS]),
            n_readings=len(ticket.readings),
            latency_s=round(ticket.latency_s, 6),
            cache_hit=ticket.cache_hit,
            staleness_s=round(ticket.staleness_s, 6),
            epoch=ticket.epoch,
            shard=shard,
        )

    def to_wire(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "tenant": self.tenant,
            "seq": self.seq,
            "attr": self.attr,
            "lo": self.lo,
            "hi": self.hi,
            "latency_s": self.latency_s,
            "cache_hit": self.cache_hit,
            "staleness_s": self.staleness_s,
            "epoch": self.epoch,
            "n_readings": self.n_readings,
            "readings": [list(r) for r in self.readings],
            "shard": self.shard,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "QueryAnswer":
        try:
            return cls(
                tenant=str(data["tenant"]),
                seq=int(data["seq"]),
                attr=int(data["attr"]),
                lo=int(data["lo"]),
                hi=int(data["hi"]),
                status=str(data.get("status", "ok")),
                readings=tuple(
                    (int(v), float(t), int(n)) for v, t, n in data["readings"]
                ),
                n_readings=int(data["n_readings"]),
                latency_s=float(data["latency_s"]),
                cache_hit=bool(data["cache_hit"]),
                staleness_s=float(data["staleness_s"]),
                epoch=int(data["epoch"]),
                shard=str(data.get("shard", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad query answer payload: {exc}") from None


@dataclass(frozen=True)
class ServiceError:
    """A failure in wire form; maps 1:1 onto the typed exceptions."""

    code: str
    message: str
    seq: int = 0

    def to_wire(self) -> Dict[str, object]:
        return {"code": self.code, "message": self.message, "seq": self.seq}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "ServiceError":
        try:
            return cls(
                code=str(data["code"]),
                message=str(data["message"]),
                seq=int(data.get("seq", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad error payload: {exc}") from None


def error_to_exception(error: ServiceError) -> ServiceFault:
    """The typed exception a :class:`ServiceError` frame stands for."""
    fault = _FAULTS.get(error.code, ServiceFault)
    exc = fault(error.message, seq=error.seq)
    exc.code = error.code
    return exc


def exception_to_error(exc: ServiceFault) -> ServiceError:
    return ServiceError(code=exc.code, message=str(exc), seq=exc.seq)


@dataclass(frozen=True)
class ServiceStats:
    """Service-wide telemetry: the per-tenant serving scorecards plus
    the per-shard and per-listener (protocol) breakdowns."""

    #: tenant name -> serving scorecard (the ``ServingFront.snapshot()``
    #: keys: offered/served/shed, latency percentiles, cache hits, ...).
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: shard name (``"shard0"``...) -> aggregate scorecard of the tenants
    #: it hosts, plus ``tenants`` (count) and ``worker_pid``.
    shards: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: listener counters: connections, frames in/out, protocol errors,
    #: socket-level sheds (credit overruns).
    protocol: Dict[str, float] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, object]:
        return {
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "shards": {k: dict(v) for k, v in self.shards.items()},
            "protocol": dict(self.protocol),
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "ServiceStats":
        try:
            return cls(
                tenants={k: dict(v) for k, v in data.get("tenants", {}).items()},
                shards={k: dict(v) for k, v in data.get("shards", {}).items()},
                protocol=dict(data.get("protocol", {})),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad stats payload: {exc}") from None


def aggregate_shard_stats(
    tenant_stats: Mapping[str, Mapping[str, float]],
    worker_pid: int = 0,
) -> Dict[str, float]:
    """Fold one shard's per-tenant scorecards into its shard scorecard.

    Counters sum; rates are recomputed from the summed counters (a mean
    of per-tenant rates would weight idle tenants equally with busy
    ones); the latency figure kept is the max per-tenant p95 — the
    shard's worst tenant is what a load balancer would act on.
    """
    cards = tenant_stats.values()

    def total(key: str) -> float:
        # Starts at 0.0, so an empty shard's fields are floats too.
        return sum((card.get(key, 0.0) for card in cards), 0.0)

    offered = total("requests_offered")
    served = total("requests_served")
    shed = total("requests_shed")
    hits = total("cache_hits")
    return {
        "tenants": float(len(tenant_stats)),
        "worker_pid": float(worker_pid),
        # Supervision counters: 0 here; ShardedGateway._scorecard sets
        # the real values (only the parent knows how often a worker has
        # been respawned).
        "restarts": 0.0,
        "replacements": 0.0,
        "last_exit": 0.0,
        "requests_offered": offered,
        "requests_served": served,
        "requests_shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "cache_hits": hits,
        "cache_hit_rate": hits / served if served else 0.0,
        "queue_depth": total("backlog"),
        "queries_issued": total("queries_issued"),
        "latency_p95_s": max(
            (card.get("latency_p95_s", 0.0) for card in cards), default=0.0
        ),
    }
