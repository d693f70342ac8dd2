"""Property tests for the framing layer.

Two invariants the serving stack leans on:

1. **Round trip** — any frame of any type, with any JSON-object payload
   and any seq, survives encode → decode unchanged, however the bytes
   are chunked on the way in.
2. **No crashes** — arbitrary garbage, truncations, and single-byte
   corruptions of valid streams either decode cleanly or raise
   :class:`ProtocolError`. Nothing else escapes the decoder.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.api import PROTOCOL_VERSION, ProtocolError
from repro.service.protocol import (
    MAX_FRAME_SIZE,
    FrameDecoder,
    FrameType,
    encode_frame,
)
from tests.conftest import decode_frames

# JSON-object payloads: keep scalars wire-safe (ints within I64, text
# without surrogates) — the protocol is JSON-over-frames, not pickle.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
_payloads = st.dictionaries(
    st.text(max_size=20),
    st.one_of(_scalars, st.lists(_scalars, max_size=8)),
    max_size=8,
)
_frame_types = st.sampled_from(list(FrameType))
_seqs = st.integers(min_value=0, max_value=2**32 - 1)


def chunked(data: bytes, cuts) -> list:
    """Split ``data`` at the given cut points (any order, dupes fine)."""
    points = sorted({min(c, len(data)) for c in cuts})
    out, prev = [], 0
    for p in points + [len(data)]:
        out.append(data[prev:p])
        prev = p
    return out


class TestRoundTrip:
    @given(ftype=_frame_types, payload=_payloads, seq=_seqs)
    def test_every_frame_type_round_trips(self, ftype, payload, seq):
        frames = decode_frames(encode_frame(ftype, payload, seq=seq))
        assert len(frames) == 1
        frame = frames[0]
        assert frame.type == ftype
        assert frame.seq == seq
        assert frame.version == PROTOCOL_VERSION
        assert frame.payload == payload

    @given(
        items=st.lists(
            st.tuples(_frame_types, _payloads, _seqs), min_size=1, max_size=6
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=500), max_size=12),
    )
    def test_chunking_is_invisible(self, items, cuts):
        """Feeding the same bytes in any chunking yields the same frames
        — partial writes interleaved across frames included."""
        blob = b"".join(
            encode_frame(t, p, seq=s) for t, p, s in items
        )
        decoder = FrameDecoder()
        frames = []
        for chunk in chunked(blob, cuts):
            frames.extend(decoder.feed(chunk))
        assert decoder.buffered == 0
        assert [(f.type, f.payload, f.seq) for f in frames] == items


class TestNeverCrashes:
    @settings(max_examples=200)
    @given(garbage=st.binary(max_size=200))
    def test_arbitrary_bytes(self, garbage):
        decoder = FrameDecoder()
        try:
            decoder.feed(garbage)
        except ProtocolError:
            pass  # the one sanctioned failure mode

    @settings(max_examples=200)
    @given(
        ftype=_frame_types,
        payload=_payloads,
        seq=_seqs,
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_corruption(self, ftype, payload, seq, position, flip):
        """XOR one byte anywhere in a valid frame: the decoder either
        still yields a frame (payload bytes may legally change under the
        flip) or raises ProtocolError — never anything else, and never a
        frame plus leftover confusion that crashes a later feed."""
        data = bytearray(encode_frame(ftype, payload, seq=seq))
        i = position % len(data)
        data[i] ^= flip
        decoder = FrameDecoder()
        try:
            decoder.feed(bytes(data))
            # Whatever happened, a subsequent valid frame must either
            # parse or raise ProtocolError (e.g. poisoned decoder, or the
            # corrupt length prefix swallowed it as payload bytes).
            decoder.feed(encode_frame(FrameType.PING))
        except ProtocolError:
            pass

    @given(
        ftype=_frame_types,
        payload=_payloads,
        keep=st.integers(min_value=0, max_value=10_000),
    )
    def test_truncation_never_yields_a_frame(self, ftype, payload, keep):
        """A strict prefix of one frame never decodes to a frame: the
        decoder waits (no error) because the length prefix promises more."""
        data = encode_frame(ftype, payload)
        prefix = data[: keep % len(data)]  # always a strict prefix
        decoder = FrameDecoder()
        assert decoder.feed(prefix) == []
        assert decoder.buffered == len(prefix)

    @given(length=st.integers(min_value=MAX_FRAME_SIZE + 1, max_value=2**32 - 1))
    def test_oversize_length_prefix_always_rejected(self, length):
        decoder = FrameDecoder()
        try:
            decoder.feed(struct.pack(">I", length))
            raise AssertionError("oversize length prefix must not be accepted")
        except ProtocolError:
            pass
