"""The framing layer: encode/decode round trips, the incremental
decoder's defensive behavior (truncation waits, violations poison), the
frame constructors' payload schemas, and the client's reply bound
against listeners that never answer.
"""

import asyncio
import json
import struct

import pytest

import repro.service.client as client_module
from repro.service.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    ProtocolVersionError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceStats,
    ServiceUnavailableError,
)
from repro.service.client import AsyncScoopClient
from repro.service.protocol import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    FrameDecoder,
    FrameType,
    encode_frame,
    error_frame,
    hello_frame,
    metrics_frame,
    negotiate_hello,
    pong_frame,
    request_frame,
    response_frame,
    stats_frame,
    stats_request_frame,
    welcome_frame,
)
from tests.conftest import decode_frames


def one_frame(data: bytes):
    frames = decode_frames(data)
    assert len(frames) == 1
    return frames[0]


class TestEncodeDecode:
    def test_round_trip(self):
        data = encode_frame(FrameType.REQUEST, {"a": 1}, seq=7)
        frame = one_frame(data)
        assert frame.type == FrameType.REQUEST
        assert frame.seq == 7
        assert frame.version == PROTOCOL_VERSION
        assert frame.payload == {"a": 1}

    def test_empty_payload_defaults_to_object(self):
        frame = one_frame(encode_frame(FrameType.PING))
        assert frame.payload == {}

    def test_many_frames_one_buffer(self):
        blob = b"".join(
            encode_frame(FrameType.REQUEST, {"i": i}, seq=i) for i in range(20)
        )
        frames = decode_frames(blob)
        assert [f.payload["i"] for f in frames] == list(range(20))

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(FrameType.REQUEST, {"x": "y" * MAX_FRAME_SIZE})

    def test_trailing_bytes_rejected_by_decode_frames(self):
        data = encode_frame(FrameType.PING) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frames(data)


class TestFrameDecoder:
    def test_byte_at_a_time_feeding(self):
        data = encode_frame(FrameType.RESPONSE, {"ok": True}, seq=3) * 3
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i : i + 1]))
        assert len(frames) == 3
        assert all(f.payload == {"ok": True} for f in frames)
        assert decoder.buffered == 0

    def test_truncated_frame_waits(self):
        data = encode_frame(FrameType.REQUEST, {"k": "v"})
        decoder = FrameDecoder()
        assert decoder.feed(data[:-1]) == []
        assert decoder.buffered == len(data) - 1
        frames = decoder.feed(data[-1:])
        assert len(frames) == 1

    def test_oversize_length_prefix_poisons(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(struct.pack(">I", MAX_FRAME_SIZE + 1))
        # Poisoned: even valid bytes now raise.
        with pytest.raises(ProtocolError, match="already failed"):
            decoder.feed(encode_frame(FrameType.PING))

    def test_undersize_length_prefix_poisons(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="shorter"):
            decoder.feed(struct.pack(">I", 2) + b"\x01\x01")

    def test_unknown_frame_type_poisons(self):
        data = bytearray(encode_frame(FrameType.PING))
        data[4] = 200  # type byte
        with pytest.raises(ProtocolError, match="unknown frame type"):
            FrameDecoder().feed(bytes(data))

    def test_version_skew_rejected_except_hello(self):
        wrong = encode_frame(FrameType.REQUEST, {}, version=PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(wrong)
        # HELLO is exempt: it carries the version under negotiation.
        hello = hello_frame(version=PROTOCOL_VERSION + 1)
        frames = FrameDecoder().feed(hello)
        assert frames[0].version == PROTOCOL_VERSION + 1

    def test_version_agnostic_mode(self):
        wrong = encode_frame(FrameType.REQUEST, {}, version=9)
        frames = FrameDecoder(require_version=None).feed(wrong)
        assert frames[0].version == 9

    def test_non_json_payload_poisons(self):
        body = b"\xff\xfe not json"
        header = struct.pack(">BBI", int(FrameType.REQUEST), PROTOCOL_VERSION, 0)
        data = struct.pack(">I", len(header) + len(body)) + header + body
        with pytest.raises(ProtocolError, match="JSON"):
            FrameDecoder().feed(data)

    def test_non_object_payload_poisons(self):
        body = json.dumps([1, 2, 3]).encode()
        header = struct.pack(">BBI", int(FrameType.REQUEST), PROTOCOL_VERSION, 0)
        data = struct.pack(">I", len(header) + len(body)) + header + body
        with pytest.raises(ProtocolError, match="object"):
            FrameDecoder().feed(data)

    def test_header_size_constant(self):
        # Length prefix + header, plus the 2-byte empty JSON object.
        data = encode_frame(FrameType.PING)
        assert len(data) == HEADER_SIZE + 2
        frame = one_frame(data)
        assert frame.payload == {}


class TestConstructors:
    def test_hello_welcome(self):
        hello = one_frame(hello_frame(client="c", subscribe_metrics=True))
        assert hello.type == FrameType.HELLO
        assert hello.payload["protocol"] == PROTOCOL_VERSION
        assert hello.payload["metrics"] is True
        version, wants = negotiate_hello(hello.payload)
        assert version == PROTOCOL_VERSION and wants is True

        welcome = one_frame(welcome_frame(["t0", "t1"], credits=8, workers=2))
        assert welcome.type == FrameType.WELCOME
        assert welcome.payload == {
            "protocol": PROTOCOL_VERSION,
            "tenants": ["t0", "t1"],
            "credits": 8,
            "workers": 2,
        }

    def test_negotiate_hello_version_skew(self):
        with pytest.raises(ProtocolVersionError):
            negotiate_hello({"protocol": PROTOCOL_VERSION + 1})
        with pytest.raises(ProtocolError):
            negotiate_hello({"protocol": "martian"})

    def test_request_response_error(self):
        request = QueryRequest(tenant="t0", attr=1, lo=2, hi=3, seq=5)
        frame = one_frame(request_frame(request))
        assert frame.type == FrameType.REQUEST and frame.seq == 5
        assert QueryRequest.from_wire(frame.payload) == request

        answer = QueryAnswer(
            tenant="t0", seq=5, attr=1, lo=2, hi=3, shard="shard0"
        )
        frame = one_frame(response_frame(answer))
        assert frame.type == FrameType.RESPONSE and frame.seq == 5
        assert QueryAnswer.from_wire(frame.payload) == answer

        error = ServiceError(code="shed", message="full", seq=5)
        frame = one_frame(error_frame(error))
        assert frame.type == FrameType.ERROR and frame.seq == 5
        assert ServiceError.from_wire(frame.payload) == error

    def test_stats_metrics_pong(self):
        stats = ServiceStats(tenants={"t": {"x": 1.0}})
        frame = one_frame(stats_frame(stats, seq=2))
        assert frame.type == FrameType.STATS
        assert ServiceStats.from_wire(frame.payload) == stats
        assert one_frame(stats_request_frame(2)).payload == {}

        frame = one_frame(
            metrics_frame("shard1", 4, {"queue_depth": 1.0}, {"t": {"x": 2.0}})
        )
        assert frame.type == FrameType.METRICS
        assert frame.payload["shard"] == "shard1"
        assert frame.payload["tick"] == 4
        assert frame.payload["stats"] == {"queue_depth": 1.0}

        pong = one_frame(pong_frame(seq=9, tenants=["t0"]))
        assert pong.seq == 9 and pong.payload == {"tenants": ["t0"]}


class TestClientReplyTimeout:
    """``AsyncScoopClient`` waits at most ``REPLY_TIMEOUT_S`` for the
    WELCOME and for each reply; a silent server fails the call typed.
    Each program runs under an outer 5 s bound so a missing client
    bound fails the test instead of hanging it."""

    @staticmethod
    def run_against(handler, program) -> None:
        async def main():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            try:
                await program(server.sockets[0].getsockname()[1])
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(main(), 5.0))

    def test_unanswered_query_raises_unavailable(self, monkeypatch):
        monkeypatch.setattr(client_module, "REPLY_TIMEOUT_S", 0.2)

        async def welcome_then_silence(reader, writer):
            length = await reader.readexactly(4)
            await reader.readexactly(int.from_bytes(length, "big"))  # the HELLO
            writer.write(welcome_frame(["tenant0"], credits=8, workers=1))
            await writer.drain()
            await reader.read()  # never answers; returns when the client closes
            writer.close()

        async def program(port):
            async with AsyncScoopClient(port=port) as client:
                with pytest.raises(ServiceUnavailableError) as info:
                    await client.query(tenant="tenant0")
                assert info.value.seq == 1
                assert not client._pending

        self.run_against(welcome_then_silence, program)

    def test_missing_welcome_raises_unavailable(self, monkeypatch):
        monkeypatch.setattr(client_module, "REPLY_TIMEOUT_S", 0.2)

        async def never_welcome(reader, writer):
            await reader.read()  # takes the HELLO, sends nothing
            writer.close()

        async def program(port):
            client = AsyncScoopClient(port=port)
            with pytest.raises(ServiceUnavailableError):
                await client.connect()
            # The timed-out connect closed its connection.
            assert client._writer is None and client._reader_task is None

        self.run_against(never_welcome, program)
