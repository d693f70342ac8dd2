"""The supported client entry point: ``AsyncScoopClient``.

This class is the *only* supported way to talk to a Scoop query server:
raw sockets are service-internal. It speaks the framed protocol of
:mod:`repro.service.protocol` and surfaces failures as the typed
exceptions of :mod:`repro.service.api`:

* :class:`~repro.service.api.ShedError` — overload (admission-queue or
  socket-level credit shed); back off and retry.
* :class:`~repro.service.api.ShardRestartingError` — the tenant's shard
  lost its worker and is coming back; **handled internally**: the
  client retries the query with capped exponential backoff
  (``retries`` attempts) before surfacing the fault.
* :class:`~repro.service.api.MalformedRequestError` — the request was
  wrong (unknown tenant, out-of-domain range); fix it, don't retry.
* :class:`~repro.service.api.ProtocolVersionError` — client and server
  disagree on :data:`~repro.service.api.PROTOCOL_VERSION`.
* :class:`~repro.service.api.ProtocolError` — the stream broke framing.
* :class:`~repro.service.api.ServiceUnavailableError` — no WELCOME or
  no reply within :data:`REPLY_TIMEOUT_S`.

The client is an async context manager::

    async with AsyncScoopClient("127.0.0.1", 4217) as client:
        answer = await client.query(tenant="tenant0", attr=0, lo=10, hi=40)
        print(answer.n_readings, answer.latency_s)

A blocking program wraps its calls in ``asyncio.run(main())``;
``python -m asyncio`` gives a REPL with top-level ``await``.

Connecting performs the hello/WELCOME handshake, which doubles as the
readiness barrier: the server holds the WELCOME until every shard has
finished booting, so a connected client can query immediately.
Connections that subscribed with ``metrics=True`` accumulate server-push
telemetry in :attr:`metrics` (a bounded deque of per-shard scorecards).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.service.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceStats,
    ServiceUnavailableError,
    ShardRestartingError,
    ShedError,
    error_to_exception,
)
from repro.service.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    hello_frame,
    request_frame,
    stats_request_frame,
)

#: Server-push METRICS frames kept per connection (older ones roll off).
METRICS_BUFFER = 256

#: Default retry policy against the ``retry`` wire code: attempts and
#: the capped exponential backoff between them. Defaults cover one
#: worker-respawn cycle (~sum of the gateway's backoff ladder); chaos
#: load drivers raise ``retries`` to ride out slower reboots.
DEFAULT_RETRIES = 8
RETRY_BASE_S = 0.25
RETRY_CAP_S = 2.0

#: Longest wait, in seconds, for the WELCOME (the dial included) and for
#: each reply. A server that accepts but never answers (a hung worker)
#: then fails the call with ServiceUnavailableError instead of hanging
#: it. Read at call time, so a test can shorten it.
REPLY_TIMEOUT_S = 60.0


def _retry_delay(attempt: int) -> float:
    """Capped exponential backoff before 0-based retry ``attempt`` —
    the client-side mirror of the supervisor's respawn schedule."""
    return min(RETRY_CAP_S, RETRY_BASE_S * (2.0**attempt))


def _answer_or_raise(payload: Dict[str, object]) -> QueryAnswer:
    """Decode a RESPONSE payload; shed answers surface as ShedError."""
    answer = QueryAnswer.from_wire(payload)
    if answer.status == "shed":
        raise ShedError(
            f"tenant {answer.tenant!r} shed request seq={answer.seq} "
            f"(admission queue full)",
            seq=answer.seq,
        )
    return answer


class AsyncScoopClient:
    """Asyncio client over one connection; safe for concurrent queries.

    A background reader task demultiplexes the stream: responses resolve
    their request's future by seq, METRICS pushes land in
    :attr:`metrics`. Many coroutines may await :meth:`query`
    concurrently on one connection — that is the supported way to keep a
    server's credit window full.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4217,
        name: str = "scoop-client",
        metrics: bool = False,
        version: int = PROTOCOL_VERSION,
        retries: int = DEFAULT_RETRIES,
    ):
        self.host = host
        self.port = port
        self.name = name
        self.subscribe_metrics = metrics
        self.version = version
        self.retries = retries
        #: total ``retry``-code resends this client performed.
        self.retries_used = 0
        self.tenants: List[str] = []
        self.credits = 0
        self.workers = 0
        self.metrics: Deque[Dict[str, object]] = deque(maxlen=METRICS_BUFFER)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._decoder = FrameDecoder()
        self._seq = 0
        self._closed = False
        self._welcome: Optional[asyncio.Future] = None

    # -- lifecycle -----------------------------------------------------
    async def connect(self) -> "AsyncScoopClient":
        """Dial, send HELLO and wait for the server's readiness-gated
        WELCOME. Raises :class:`ProtocolVersionError` on version skew,
        and closes the client and raises
        :class:`ServiceUnavailableError` if no WELCOME arrives within
        :data:`REPLY_TIMEOUT_S`."""
        if self._writer is not None:
            return self
        try:
            welcome = await asyncio.wait_for(self._hello(), REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.aclose()
            raise ServiceUnavailableError(
                f"no WELCOME from {self.host}:{self.port} within "
                f"{REPLY_TIMEOUT_S:g}s"
            ) from None
        self.tenants = [str(t) for t in welcome.get("tenants", [])]
        self.credits = int(welcome.get("credits", 0))
        self.workers = int(welcome.get("workers", 0))
        return self

    async def _hello(self) -> Dict[str, object]:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._welcome = asyncio.get_running_loop().create_future()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="scoop-client-reader"
        )
        self._writer.write(
            hello_frame(
                client=self.name,
                subscribe_metrics=self.subscribe_metrics,
                version=self.version,
            )
        )
        await self._writer.drain()
        return await self._welcome

    async def aclose(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
        self._fail_pending(ProtocolError("client closed"))

    async def __aenter__(self) -> "AsyncScoopClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- reader --------------------------------------------------------
    def _fail_pending(self, exc: Exception) -> None:
        if self._welcome is not None and not self._welcome.done():
            self._welcome.set_exception(exc)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    self._fail_pending(
                        ProtocolError("server closed the connection")
                    )
                    return
                for frame in self._decoder.feed(data):
                    self._on_frame(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            self._fail_pending(
                exc
                if isinstance(exc, ProtocolError)
                else ProtocolError(f"client reader failed: {exc}")
            )

    def _on_frame(self, frame) -> None:
        if frame.type == FrameType.METRICS:
            self.metrics.append(dict(frame.payload))
            return
        if frame.type == FrameType.WELCOME:
            if self._welcome is not None and not self._welcome.done():
                self._welcome.set_result(dict(frame.payload))
            return
        if frame.type == FrameType.ERROR:
            exc = error_to_exception(ServiceError.from_wire(frame.payload))
            future = self._pending.pop(frame.seq, None)
            if future is not None and not future.done():
                future.set_exception(exc)
            elif self._welcome is not None and not self._welcome.done():
                # Pre-WELCOME failure (version skew, bad hello).
                self._welcome.set_exception(exc)
            return
        future = self._pending.pop(frame.seq, None)
        if future is not None and not future.done():
            future.set_result(frame)

    # -- operations ----------------------------------------------------
    async def _exchange(self, data: bytes, seq: int):
        if self._writer is None or self._closed:
            raise ProtocolError("client is not connected")
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        self._writer.write(data)
        await self._writer.drain()
        try:
            return await asyncio.wait_for(future, REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            self._pending.pop(seq, None)
            raise ServiceUnavailableError(
                f"no reply to seq={seq} within {REPLY_TIMEOUT_S:g}s", seq=seq
            ) from None

    async def query(
        self,
        tenant: str = "tenant0",
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> QueryAnswer:
        """One range query; awaits the answer. Raises the typed faults
        (:class:`ShedError`, :class:`MalformedRequestError`, ...)
        instead of returning error strings. The retryable ``retry`` code
        (shard mid-respawn) is absorbed: the query is resent, with
        capped backoff, up to ``retries`` times before the fault
        surfaces."""
        for attempt in range(self.retries + 1):
            self._seq += 1
            request = QueryRequest(
                tenant=tenant, attr=attr, lo=lo, hi=hi, seq=self._seq
            )
            try:
                frame = await self._exchange(request_frame(request), request.seq)
            except ShardRestartingError:
                if attempt >= self.retries:
                    raise
                self.retries_used += 1
                await asyncio.sleep(_retry_delay(attempt))
                continue
            return _answer_or_raise(frame.payload)
        raise AssertionError("unreachable: retry loop always returns/raises")

    async def stats(self) -> ServiceStats:
        self._seq += 1
        frame = await self._exchange(stats_request_frame(self._seq), self._seq)
        return ServiceStats.from_wire(frame.payload)

    async def ping(self) -> List[str]:
        self._seq += 1
        frame = await self._exchange(
            encode_frame(FrameType.PING, {}, seq=self._seq), self._seq
        )
        return [str(t) for t in frame.payload.get("tenants", [])]
