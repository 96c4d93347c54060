"""Property tests for the serving wire codec (`repro.serving.wire`).

Round-trip: every registered message type survives encode → arbitrary
re-chunking → decode bit-identically, with its sequence number.
Byte identity: the table-driven encoder emits exactly the frame the
``dataclasses.asdict`` + ``json.dumps`` one did.
Adversarial: truncated frames, oversized length prefixes and garbage
payloads all surface as :class:`TransportError` — and a live server
connection survives a garbage payload (the loop answers it in order
and keeps serving).
"""

import asyncio
import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.serving.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    AckReply,
    ErrorReply,
    EvaluateOp,
    EvaluateReply,
    FrameDecoder,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    UpdateOp,
    decode_message,
    encode_frame,
    encode_message,
)

from serving_helpers import TIMEOUT, make_data_server

# -- strategies ----------------------------------------------------------------------

text = st.text(max_size=40)
opt_text = st.none() | text
json_scalar = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(
        allow_nan=False, allow_infinity=False, width=32
    ) | text
)
records = st.lists(
    st.dictionaries(text, json_scalar, max_size=4), max_size=4
)

MESSAGE_STRATEGIES = {
    EvaluateOp: st.builds(EvaluateOp, text, opt_text, st.booleans()),
    LoadOp: st.builds(LoadOp, text),
    UpdateOp: st.builds(UpdateOp, text),
    RevokeOp: st.builds(RevokeOp, text),
    IngestOp: st.builds(IngestOp, text, records),
    PingOp: st.just(PingOp()),
    EvaluateReply: st.builds(
        EvaluateReply, st.booleans(), opt_text, opt_text, opt_text, opt_text, opt_text
    ),
    AckReply: st.builds(AckReply, text, opt_text, st.integers(0, 10**9)),
    ErrorReply: st.builds(ErrorReply, text, text),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_registered_type_has_a_strategy():
    # The round-trip property really does cover the whole protocol.
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES.values())


class TestRoundTrip:
    @given(any_message, st.integers(0, 2**31 - 1), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_through_arbitrary_chunking(self, message, seq, rng):
        frame = encode_message(seq, message)
        decoder = FrameDecoder()
        payloads = []
        position = 0
        while position < len(frame):
            step = rng.randint(1, len(frame) - position)
            payloads.extend(decoder.feed(frame[position:position + step]))
            position += step
        decoder.eof()
        assert len(payloads) == 1
        got_seq, got = decode_message(payloads[0])
        assert got_seq == seq
        assert got == message
        assert type(got) is type(message)

    @given(st.lists(st.tuples(st.integers(0, 999), any_message), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_frames_decode_in_order(self, items):
        stream = b"".join(encode_message(seq, m) for seq, m in items)
        decoder = FrameDecoder()
        decoded = [decode_message(p) for p in decoder.feed(stream)]
        decoder.eof()
        assert decoded == items


    @given(any_message, st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_frame_bytes_match_the_asdict_encoder(self, message, seq):
        (op,) = [name for name, cls in MESSAGE_TYPES.items() if cls is type(message)]
        envelope = {"seq": seq, "op": op, "body": dataclasses.asdict(message)}
        assert encode_message(seq, message) == encode_frame(
            json.dumps(envelope, separators=(",", ":")).encode()
        )


def envelope(op, /, **body):
    return json.dumps({"seq": 1, "op": op, "body": body}).encode()


#: Well-named body fields carrying the wrong JSON type.
MISTYPED_PAYLOADS = [
    envelope("evaluate", request_xml="<Request/>", decide_only="no"),  # served as truthy
    envelope("evaluate", request_xml=None),
    envelope("evaluate", request_xml="<Request/>", user_query_xml=7),
    envelope("revoke", policy_id=["x"]),
    envelope("ack", op="ingest", count=True),           # bool is not a count
    envelope("ack", op="ingest", count=1.5),
    envelope("ingest", stream="weather", records={"rainrate": 1}),
    envelope("ingest", stream="weather", records=[["rainrate", 1]]),
    envelope("error", error_kind="X", retryable=0),
    b'{"seq": 1, "op": ["ping"], "body": {}}',          # unhashable op
]


class TestMalformedInput:
    @given(any_message, st.integers(0, 999), st.integers(min_value=1))
    @settings(max_examples=100, deadline=None)
    def test_truncated_frame_raises_on_eof(self, message, seq, cut):
        frame = encode_message(seq, message)
        cut = min(cut, len(frame) - 1)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:cut]) == []
        with pytest.raises(TransportError):
            decoder.eof()

    @given(st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_oversized_length_prefix_rejected_before_buffering(self, length):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(struct.pack("!I", length))

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(TransportError):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_garbage_payload_raises_transport_error(self, payload):
        # Any leading byte that cannot start a JSON object envelope is
        # guaranteed garbage; JSON-shaped payloads may legitimately
        # decode, so force the non-JSON case.
        try:
            seq_message = decode_message(b"\xff" + payload)
        except TransportError:
            return
        pytest.fail(f"garbage decoded as {seq_message!r}")

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b"[1, 2, 3]",                                 # non-object envelope
            b'{"op": "evaluate", "body": {}}',            # missing seq
            b'{"seq": true, "op": "ping", "body": {}}',   # bool is not a seq
            b'{"seq": 1, "op": "warp", "body": {}}',      # unknown op
            b'{"seq": 1, "op": "ping", "body": []}',      # non-object body
            b'{"seq": 1, "op": "revoke", "body": {}}',    # missing field
            b'{"seq": 1, "op": "ping", "body": {"x": 1}}',  # unknown field
        ],
    )
    def test_malformed_envelopes_raise_transport_error(self, payload):
        with pytest.raises(TransportError):
            decode_message(payload)


    @pytest.mark.parametrize("payload", MISTYPED_PAYLOADS)
    def test_mistyped_body_fields_raise_transport_error(self, payload):
        with pytest.raises(TransportError):
            decode_message(payload)

    def test_optional_fields_accept_null_and_defaults_still_apply(self):
        seq, message = decode_message(
            envelope("evaluate", request_xml="<Request/>", user_query_xml=None)
        )
        assert message == EvaluateOp("<Request/>", None, False)


class TestServerSurvivesGarbage:
    def test_mistyped_field_is_answered_in_order_and_the_connection_lives(self):
        async def scenario():
            from repro.serving import AsyncClient, AsyncDataServer

            async with AsyncDataServer(make_data_server()) as front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port
                ) as client:
                    # At the parent this frame was *served* as decide-only.
                    client._writer.write(encode_frame(MISTYPED_PAYLOADS[0]))
                    await client._writer.drain()
                    reply = await client._read_reply(0)
                    assert isinstance(reply, ErrorReply)
                    assert reply.error_kind == "TransportError"
                    assert "decide_only" in reply.error_detail
                    assert (await client.ping()).op == "ping"
                assert front.protocol_errors == 0

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_garbage_payload_does_not_kill_the_connection_loop(self):
        async def scenario():
            from repro.serving import AsyncClient, AsyncDataServer

            async with AsyncDataServer(make_data_server()) as front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port
                ) as client:
                    # Intact frame, garbage payload: answered in order...
                    client._writer.write(encode_frame(b"\xffgarbage"))
                    await client._writer.drain()
                    reply = await client._read_reply(0)
                    assert isinstance(reply, ErrorReply)
                    assert reply.error_kind == "TransportError"
                    # ...and the connection still serves.
                    assert (await client.ping()).op == "ping"
                assert front.protocol_errors == 0

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_oversized_length_prefix_drops_only_that_connection(self):
        async def scenario():
            from repro.serving import AsyncClient, AsyncDataServer

            async with AsyncDataServer(make_data_server()) as front:
                bad = await AsyncClient.connect("127.0.0.1", front.port)
                good = await AsyncClient.connect("127.0.0.1", front.port)
                bad._writer.write(struct.pack("!I", MAX_FRAME_BYTES + 1))
                await bad._writer.drain()
                with pytest.raises(TransportError):
                    # The server cuts the connection without replying.
                    await bad._read_reply(0)
                assert (await good.ping()).op == "ping"
                assert front.protocol_errors == 1
                await bad.aclose()
                await good.aclose()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
