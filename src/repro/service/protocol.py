"""Length-prefixed binary framing for the query service.

The JSON-lines transport of PR 7 had no version field, no backpressure,
and no way to interleave server-push telemetry with responses. This
module defines the framed replacement both ends speak
(:class:`~repro.service.client.AsyncScoopClient` ↔
:class:`~repro.service.server.ScoopServer`):

======  ======  =====================================================
offset  size    field
======  ======  =====================================================
0       4       ``length`` — big-endian uint32, byte count of
                everything after this field (header + payload).
4       1       ``type`` — :class:`FrameType`.
5       1       ``version`` — :data:`~repro.service.api.PROTOCOL_VERSION`
                the sender speaks.
6       4       ``seq`` — big-endian uint32 request-correlation id
                (0 for unsolicited frames, such as METRICS pushes).
10      ...     ``payload`` — UTF-8 JSON, frame-type specific.
======  ======  =====================================================

Frames are self-delimiting, so any number of them can ride one TCP
stream in either direction, interleaved with server-push METRICS
frames. :class:`FrameDecoder` is incremental and adversarially
defensive: partial writes simply wait for more bytes, while oversize
length prefixes, unknown frame types, version skew and non-JSON payloads
raise :class:`~repro.service.api.ProtocolError` (never anything else) —
a worker survives any byte stream a client can produce.

Backpressure is credit-based per connection: the server's WELCOME grants
``credits`` — the maximum in-flight (unanswered) requests on the
connection, fixed for the connection's life. Every RESPONSE/ERROR
returns its request's credit. A client that overruns its window is shed
*at the socket* (an ERROR frame with code ``shed``) before the request
can balloon the admission queue.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceStats,
)

#: struct layout of the fixed header after the length prefix.
_HEADER = struct.Struct(">BBI")
#: struct layout of the length prefix itself.
_LENGTH = struct.Struct(">I")
HEADER_SIZE = _LENGTH.size + _HEADER.size

#: Hard bound on ``length``: anything larger is a protocol violation
#: (or an attack), refused before any allocation happens.
MAX_FRAME_SIZE = 1 << 20

#: Default per-connection credit window (max in-flight requests).
DEFAULT_CREDITS = 32


class FrameType(enum.IntEnum):
    """Every frame the protocol defines, both directions."""

    HELLO = 1  # client → server: version + options; blocks until ready
    WELCOME = 2  # server → client: version, tenants, credit window
    REQUEST = 3  # client → server: one QueryRequest
    RESPONSE = 4  # server → client: one QueryAnswer
    ERROR = 5  # server → client: one ServiceError
    STATS = 6  # client → server (empty) and server → client (payload)
    METRICS = 7  # server → client push: live per-shard scorecards
    CREDIT = 8  # reserved: neither end sends or handles it
    PING = 9  # client → server keepalive
    PONG = 10  # server → client keepalive reply


_KNOWN_TYPES = frozenset(int(t) for t in FrameType)


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type + version + correlation seq + JSON body."""

    type: FrameType
    seq: int = 0
    payload: Dict[str, object] = None  # type: ignore[assignment]
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.payload is None:
            object.__setattr__(self, "payload", {})


def encode_frame(
    type: FrameType,
    payload: Optional[Dict[str, object]] = None,
    seq: int = 0,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Serialize one frame (length prefix + header + JSON payload)."""
    body = json.dumps(
        payload or {}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) + _HEADER.size > MAX_FRAME_SIZE:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_SIZE}-byte frame bound"
        )
    header = _HEADER.pack(int(type), version, seq & 0xFFFFFFFF)
    return _LENGTH.pack(len(header) + len(body)) + header + body


class FrameDecoder:
    """Incremental, defensive frame decoder.

    Feed it byte chunks as they arrive (any fragmentation — a frame
    split across a hundred writes, or a hundred frames in one chunk);
    it yields complete :class:`Frame`\\ s. All violations raise
    :class:`~repro.service.api.ProtocolError`; after one the decoder is
    poisoned (the stream cannot be resynchronized) and every further
    feed raises.
    """

    def __init__(self, require_version: Optional[int] = PROTOCOL_VERSION):
        self._buffer = bytearray()
        self._poisoned: Optional[str] = None
        #: accept only this protocol version (None = any, for the
        #: pre-negotiation HELLO which carries its own version to check).
        self.require_version = require_version

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data``; return every frame completed by it."""
        return list(self.feed_iter(data))

    def feed_iter(self, data: bytes) -> Iterator[Frame]:
        if self._poisoned is not None:
            raise ProtocolError(
                f"stream already failed: {self._poisoned}"
            )
        self._buffer.extend(data)
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _fail(self, message: str) -> ProtocolError:
        self._poisoned = message
        return ProtocolError(message)

    def _next_frame(self) -> Optional[Frame]:
        buf = self._buffer
        if len(buf) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(buf, 0)
        if length > MAX_FRAME_SIZE:
            raise self._fail(
                f"frame length {length} exceeds the {MAX_FRAME_SIZE}-byte bound"
            )
        if length < _HEADER.size:
            raise self._fail(
                f"frame length {length} is shorter than the {_HEADER.size}-byte header"
            )
        if len(buf) < _LENGTH.size + length:
            return None  # truncated: wait for more bytes
        ftype, version, seq = _HEADER.unpack_from(buf, _LENGTH.size)
        body = bytes(buf[HEADER_SIZE : _LENGTH.size + length])
        del buf[: _LENGTH.size + length]
        if ftype not in _KNOWN_TYPES:
            raise self._fail(f"unknown frame type {ftype}")
        if (
            self.require_version is not None
            and version != self.require_version
            and ftype != FrameType.HELLO
        ):
            # HELLO is exempt: it *carries* the version to negotiate.
            raise self._fail(
                f"frame version {version} != negotiated {self.require_version}"
            )
        try:
            payload = json.loads(body) if body else {}
        except ValueError as exc:
            raise self._fail(f"frame payload is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise self._fail("frame payload must be a JSON object")
        return Frame(
            type=FrameType(ftype), seq=seq, payload=payload, version=version
        )


# ----------------------------------------------------------------------
# Frame constructors (the payload schemas, in one place)
# ----------------------------------------------------------------------
def hello_frame(
    client: str = "scoop-client",
    subscribe_metrics: bool = False,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Client hello: opens the conversation, names the protocol version,
    and optionally subscribes to the live metrics stream. The server
    answers with WELCOME only once its shards report ready — the
    readiness handshake that keeps first queries from racing warmup."""
    return encode_frame(
        FrameType.HELLO,
        {
            "protocol": version,
            "client": client,
            "metrics": bool(subscribe_metrics),
        },
        version=version,
    )


def welcome_frame(
    tenants: List[str],
    credits: int = DEFAULT_CREDITS,
    workers: int = 1,
) -> bytes:
    return encode_frame(
        FrameType.WELCOME,
        {
            "protocol": PROTOCOL_VERSION,
            "tenants": list(tenants),
            "credits": int(credits),
            "workers": int(workers),
        },
    )


def request_frame(request: QueryRequest) -> bytes:
    """One :class:`~repro.service.api.QueryRequest` (seq rides in the
    header and the payload; the header copy is authoritative)."""
    return encode_frame(FrameType.REQUEST, request.to_wire(), seq=request.seq)


def response_frame(answer: QueryAnswer) -> bytes:
    return encode_frame(FrameType.RESPONSE, answer.to_wire(), seq=answer.seq)


def error_frame(error: ServiceError) -> bytes:
    return encode_frame(FrameType.ERROR, error.to_wire(), seq=error.seq)


def stats_request_frame(seq: int) -> bytes:
    return encode_frame(FrameType.STATS, {}, seq=seq)


def stats_frame(stats: ServiceStats, seq: int) -> bytes:
    return encode_frame(FrameType.STATS, stats.to_wire(), seq=seq)


def metrics_frame(
    shard: str,
    tick: int,
    shard_stats: Dict[str, float],
    tenants: Optional[Dict[str, Dict[str, float]]] = None,
) -> bytes:
    """One live telemetry push for one shard: queue depth, hit rate,
    p95, shed count — the streaming replacement for end-of-run
    snapshots. ``tick`` increments per push so clients can spot gaps."""
    return encode_frame(
        FrameType.METRICS,
        {
            "shard": shard,
            "tick": int(tick),
            "stats": dict(shard_stats),
            "tenants": {k: dict(v) for k, v in (tenants or {}).items()},
        },
    )


def pong_frame(seq: int = 0, tenants: Optional[List[str]] = None) -> bytes:
    return encode_frame(
        FrameType.PONG, {"tenants": list(tenants or [])}, seq=seq
    )


def negotiate_hello(payload: Dict[str, Any]) -> Tuple[int, bool]:
    """Validate a HELLO payload; return ``(version, wants_metrics)``.

    Raises :class:`~repro.service.api.ProtocolVersionError` when the
    client speaks a version this server does not.
    """
    from repro.service.api import ProtocolVersionError

    try:
        version = int(payload.get("protocol", -1))
    except (TypeError, ValueError):
        raise ProtocolError("hello carries a non-integer protocol version")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"client speaks protocol {version}, server speaks "
            f"{PROTOCOL_VERSION}"
        )
    return version, bool(payload.get("metrics", False))
