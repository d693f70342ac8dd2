"""The framed TCP server: credit backpressure, readiness, metrics push.

:class:`ScoopServer` exposes a :class:`~repro.service.shard.ShardedGateway`
over the length-prefixed protocol of :mod:`repro.service.protocol`.

Per-connection lifecycle:

1. The client's first frame must be HELLO. The server validates the
   protocol version (:class:`~repro.service.api.ProtocolVersionError`
   on skew) and then *blocks the handshake on gateway readiness* — the
   WELCOME is only sent once every shard has finished boot +
   stabilization, so a first query can never race warmup.
2. WELCOME grants the connection's credit window: the maximum in-flight
   (unanswered) REQUESTs. A client that overruns it is shed *at the
   socket* — an ERROR frame with code ``shed``, counted in
   ``sheds_socket`` — before the request can reach (and balloon) any
   tenant admission queue. Credits return implicitly with every
   RESPONSE/ERROR.
3. A HELLO with ``metrics: true`` subscribes the connection to the live
   telemetry stream: every ``metrics_interval`` seconds the server reads
   the gateway's stats once (:meth:`ShardedGateway.service_stats`) and
   pushes one METRICS frame per shard (queue depth, hit rate, p95, shed
   count, and that shard's tenant scorecards), interleaved with
   responses. Scorecards come from the tenants' serving fronts in this
   process, so a push asks no worker anything; a restarting shard pushes
   its tenants' fronts as the worker's death left them, and a retired
   shard pushes no tenants.

Requests go to :meth:`ShardedGateway.answer`, which answers a cache hit
on an idle tenant in this process and awaits a worker only for a miss.

Framing violations (oversize length prefix, unknown frame type, version
skew after negotiation, non-JSON payload) poison only the offending
connection: the server answers with a final ERROR frame (code
``protocol``), counts it, and closes that socket. The listener and all
other connections keep serving.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Dict, Optional

from repro.service.api import (
    ProtocolError,
    QueryRequest,
    ServiceFault,
    ServiceStats,
    ServiceUnavailableError,
    exception_to_error,
)
from repro.service.protocol import (
    DEFAULT_CREDITS,
    FrameDecoder,
    FrameType,
    error_frame,
    metrics_frame,
    negotiate_hello,
    pong_frame,
    response_frame,
    stats_frame,
    welcome_frame,
)
from repro.service.shard import ShardedGateway

#: How often (seconds, wall clock) subscribed connections receive the
#: per-shard METRICS push.
DEFAULT_METRICS_INTERVAL = 0.5


class ScoopServer:
    """One listening socket in front of a gateway."""

    def __init__(
        self,
        gateway: ShardedGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        credits: int = DEFAULT_CREDITS,
        metrics_interval: float = DEFAULT_METRICS_INTERVAL,
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        self.credits = credits
        self.metrics_interval = metrics_interval
        self._server: Optional[asyncio.AbstractServer] = None
        #: listener-level counters, exported as ``ServiceStats.protocol``.
        self.counters: Dict[str, float] = {
            "connections": 0.0,
            "connections_open": 0.0,
            "frames_in": 0.0,
            "frames_out": 0.0,
            "requests": 0.0,
            "protocol_errors": 0.0,
            "sheds_socket": 0.0,
            "metrics_pushed": 0.0,
            "retries_signalled": 0.0,
        }

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def service_stats(self) -> ServiceStats:
        """Gateway stats plus this listener's protocol counters."""
        stats = await self.gateway.service_stats()
        return ServiceStats(
            tenants=stats.tenants,
            shards=stats.shards,
            protocol=dict(self.counters),
        )

    # ------------------------------------------------------------------
    async def _send(self, writer, lock: asyncio.Lock, data: bytes) -> None:
        """Serialize writes: responses, errors and metrics pushes come
        from different tasks but must not interleave mid-frame."""
        async with lock:
            writer.write(data)
            await writer.drain()
        self.counters["frames_out"] += 1

    async def _handle(self, reader, writer) -> None:
        self.counters["connections"] += 1
        self.counters["connections_open"] += 1
        decoder = FrameDecoder()
        lock = asyncio.Lock()
        inflight: set = set()
        pending: set = set()
        greeted = False
        credits = self.credits
        metrics_task: Optional[asyncio.Task] = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    await self._send(writer, lock, error_frame(exception_to_error(exc)))
                    break
                for frame in frames:
                    self.counters["frames_in"] += 1
                    if not greeted:
                        if frame.type != FrameType.HELLO:
                            self.counters["protocol_errors"] += 1
                            exc = ProtocolError(
                                f"first frame must be HELLO, got {frame.type.name}"
                            )
                            await self._send(
                                writer, lock, error_frame(exception_to_error(exc))
                            )
                            return
                        try:
                            _version, wants_metrics = negotiate_hello(frame.payload)
                        except ServiceFault as exc:
                            self.counters["protocol_errors"] += 1
                            await self._send(
                                writer, lock, error_frame(exception_to_error(exc))
                            )
                            return
                        # Readiness handshake: WELCOME only once every
                        # shard reports ready.
                        await self.gateway.ready.wait()
                        if self.gateway.closed:
                            exc = ServiceUnavailableError("gateway is closed")
                            await self._send(
                                writer, lock, error_frame(exception_to_error(exc))
                            )
                            return
                        greeted = True
                        await self._send(
                            writer,
                            lock,
                            welcome_frame(
                                tenants=self.gateway.tenants,
                                credits=credits,
                                workers=self.gateway.workers,
                            ),
                        )
                        if wants_metrics and self.metrics_interval > 0:
                            metrics_task = asyncio.create_task(
                                self._push_metrics(writer, lock)
                            )
                        continue
                    if frame.type == FrameType.PING:
                        await self._send(
                            writer,
                            lock,
                            pong_frame(seq=frame.seq, tenants=self.gateway.tenants),
                        )
                    elif frame.type == FrameType.STATS:
                        stats = await self.service_stats()
                        await self._send(
                            writer, lock, stats_frame(stats, seq=frame.seq)
                        )
                    elif frame.type == FrameType.REQUEST:
                        if len(inflight) >= credits:
                            # Credit overrun: shed at the socket, before
                            # the request can touch an admission queue.
                            self.counters["sheds_socket"] += 1
                            fault = ServiceFault(
                                f"credit window of {credits} in-flight "
                                f"requests overrun",
                                seq=frame.seq,
                            )
                            fault.code = "shed"
                            await self._send(
                                writer, lock, error_frame(exception_to_error(fault))
                            )
                            continue
                        self.counters["requests"] += 1
                        inflight.add(frame.seq)
                        task = asyncio.create_task(
                            self._answer(writer, lock, inflight, frame)
                        )
                        pending.add(task)
                        task.add_done_callback(pending.discard)
                    else:
                        # WELCOME/RESPONSE/... are server-to-client only.
                        self.counters["protocol_errors"] += 1
                        exc = ProtocolError(
                            f"unexpected client frame {frame.type.name}",
                            seq=frame.seq,
                        )
                        await self._send(
                            writer, lock, error_frame(exception_to_error(exc))
                        )
                        return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self.counters["connections_open"] -= 1
            if metrics_task is not None:
                metrics_task.cancel()
            for task in list(pending):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _answer(self, writer, lock, inflight: set, frame) -> None:
        """Answer one REQUEST frame; always returns its credit."""
        try:
            request = QueryRequest.from_wire(frame.payload)
            if request.seq != frame.seq:
                # The header copy is authoritative.
                request = dataclasses.replace(request, seq=frame.seq)
            answer = await self.gateway.answer(request)
            payload = response_frame(answer)
        except ServiceFault as exc:
            if exc.seq == 0:
                exc.seq = frame.seq
            if exc.code == "retry":
                # A shard mid-respawn told this client to come back;
                # count the signal — the chaos gate asserts it fired.
                self.counters["retries_signalled"] += 1
            payload = error_frame(exception_to_error(exc))
        except asyncio.CancelledError:
            raise
        finally:
            inflight.discard(frame.seq)
        try:
            await self._send(writer, lock, payload)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _push_metrics(self, writer, lock) -> None:
        """The live telemetry stream for one subscribed connection: one
        stats read per interval, one METRICS frame per shard, ``tick``
        counting this connection's pushes from 1."""
        tick = 0
        try:
            while True:
                await asyncio.sleep(self.metrics_interval)
                stats = await self.gateway.service_stats()
                tick += 1
                for shard, card in sorted(stats.shards.items()):
                    tenants = {
                        name: scorecard
                        for name, scorecard in stats.tenants.items()
                        if self.gateway.shard_of(name) == shard
                    }
                    await self._send(
                        writer,
                        lock,
                        metrics_frame(
                            shard=shard,
                            tick=tick,
                            shard_stats=card,
                            tenants=tenants,
                        ),
                    )
                    self.counters["metrics_pushed"] += 1
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError):
            return


async def serve_framed(
    gateway: ShardedGateway,
    host: str = "127.0.0.1",
    port: int = 0,
    credits: int = DEFAULT_CREDITS,
    metrics_interval: float = DEFAULT_METRICS_INTERVAL,
) -> ScoopServer:
    """Bind a :class:`ScoopServer` and return it (started, not serving
    forever — callers own the lifetime)."""
    server = ScoopServer(
        gateway,
        host=host,
        port=port,
        credits=credits,
        metrics_interval=metrics_interval,
    )
    await server.start()
    return server
