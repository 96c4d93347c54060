"""Property tests for the serving wire codec (`repro.serving.wire`).

Round-trip: every registered message type survives encode → arbitrary
re-chunking → decode bit-identically, with its sequence number.
Byte identity: the table-driven encoder emits exactly the frame the
``dataclasses.asdict`` + ``json.dumps`` one did.
Adversarial: truncated frames, oversized length prefixes and garbage
payloads all surface as :class:`TransportError` — and a live server
connection survives a garbage payload (the loop answers it in order
and keeps serving).  The encoder refuses exactly what the decoder would.
Memoised ≡ unmemoised: both directions memoise the bytes after the
envelope's seq, and a differential property holds each against its
``__wrapped__`` path (``FUZZ_LONG=1`` raises its budget, ``FUZZ_SEED``
pins its seed; tier-1 runs seed 0).
"""

import asyncio
import dataclasses
import json
import os
import random
import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, note, seed, settings, strategies as st

from repro.errors import TransportError
from repro.obs import MEMO_ENTRIES, MEMO_MAX_TEXT
from repro.serving.server import AsyncDataServer
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
    StatsOp,
    StatsReply,
    UpdateOp,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.xacml.request import Request
from repro.xacml.xml_io import request_to_xml

from serving_helpers import TIMEOUT, make_data_server

LONG = bool(os.environ.get("FUZZ_LONG"))
SEED = int(os.environ.get("FUZZ_SEED") or (random.SystemRandom().randrange(2**31) if LONG else 0))
#: Examples per codec property.
CODEC_EXAMPLES = 3000 if LONG else 150

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
    StatsOp: st.just(StatsOp()),
    StatsReply: st.builds(StatsReply, st.dictionaries(
        text, json_scalar | st.lists(json_scalar, max_size=3), max_size=6
    )),
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


async def read_payload(reader) -> bytes:
    (length,) = struct.unpack("!I", await reader.readexactly(HEADER_BYTES))
    return await reader.readexactly(length)


#: Payloads CPython's JSON decoder refuses with something other than a
#: ``JSONDecodeError``: each used to escape ``decode_message`` untyped.
UNTYPED_DECODE_FAILURES = {
    "seq-of-5000-digits": b'{"seq":' + b"7" * 5000 + b',"op":"ping","body":{}}',
    "record-value-of-5000-digits": (
        b'{"seq":1,"op":"ingest","body":{"stream":"weather","records":[{"rainrate":'
        + b"7" * 5000 + b"}]}}"
    ),
    "nesting-past-the-recursion-limit": (
        b'{"seq":1,"op":"ping","body":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    ),
}


class TestIntegersPastTheIntStringLimit:
    @pytest.mark.parametrize(
        "payload", UNTYPED_DECODE_FAILURES.values(), ids=list(UNTYPED_DECODE_FAILURES)
    )
    def test_decode_raises_transport_error(self, payload):
        with pytest.raises(TransportError, match="undecodable frame payload"):
            decode_message(payload)

    def test_live_server_answers_the_frame_and_keeps_serving(self):
        async def scenario():
            from repro.serving import AsyncDataServer

            async with AsyncDataServer(make_data_server()) as front:
                reader, writer = await asyncio.open_connection("127.0.0.1", front.port)
                # The valid ping is pipelined behind the bad frame.
                writer.write(
                    encode_frame(UNTYPED_DECODE_FAILURES["seq-of-5000-digits"])
                    + encode_message(5, PingOp())
                )
                await writer.drain()
                (bad_seq, bad), (ping_seq, ping) = [
                    decode_message(await read_payload(reader)) for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                assert bad_seq == -1
                assert isinstance(bad, ErrorReply)
                assert bad.error_kind == "TransportError"
                assert "4300" in bad.error_detail
                assert (ping_seq, ping) == (5, AckReply("ping"))
                assert front.protocol_errors == 0

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_async_client_receiving_such_a_reply_raises_transport_error(self):
        async def scenario():
            from repro.serving import AsyncClient

            async def handler(reader, writer):
                await read_payload(reader)
                writer.write(encode_frame(
                    b'{"seq":0,"op":"ack","body":{"op":"ping","count":' + b"7" * 5000 + b"}}"
                ))
                await writer.drain()
                await reader.read()     # until the client hangs up
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await AsyncClient.connect("127.0.0.1", port) as client:
                    with pytest.raises(TransportError, match="undecodable frame payload"):
                        await client.ping()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


class _Tag(str):
    """A ``str`` subclass: JSON carries it as the plain string it is."""


#: Messages that used to encode into frames the peer's decoder refuses.
UNDECODABLE_MESSAGES = {
    "bool-seq": (True, PingOp()),
    "bool-count": (1, AckReply("ingest", count=True)),
    "float-count": (1, AckReply("ingest", count=1.5)),
    "int-ok": (1, EvaluateReply(ok=1)),
    "int-retryable": (1, ErrorReply("X", retryable=0)),
    "count-past-the-int-string-limit": (1, AckReply("ingest", count=10**5000)),
    "seq-past-the-int-string-limit": (10**5000, PingOp()),
}


#: The ``MISTYPED_PAYLOADS`` a message object can carry (all but the list op).
MISTYPED_MESSAGE_PAYLOADS = [p for p in MISTYPED_PAYLOADS if isinstance(json.loads(p)["op"], str)]


class TestEncoderRefusesWhatTheDecoderWould:
    @pytest.mark.parametrize(
        "seq, message", UNDECODABLE_MESSAGES.values(), ids=list(UNDECODABLE_MESSAGES)
    )
    def test_refused_at_encode(self, seq, message):
        with pytest.raises(TransportError):
            encode_message(seq, message)
        with pytest.raises(TransportError):
            encode_message.__wrapped__(seq, message)

    @pytest.mark.parametrize("payload", MISTYPED_MESSAGE_PAYLOADS, ids=[
        f"{json.loads(p)['op']}-{number}" for number, p in enumerate(MISTYPED_MESSAGE_PAYLOADS)
    ])
    def test_every_mistyped_payload_shape_is_refused_as_a_message(self, payload):
        envelope = json.loads(payload)
        message = MESSAGE_TYPES[envelope["op"]](**envelope["body"])
        with pytest.raises(TransportError) as refused_at_decode:
            decode_message(payload)
        with pytest.raises(TransportError) as refused_at_encode:
            encode_message(envelope["seq"], message)
        assert str(refused_at_encode.value) == str(refused_at_decode.value)

    def test_a_str_subclass_still_encodes_as_its_plain_string(self):
        tagged = EvaluateOp(_Tag("<Request/>"), _Tag("<UserQuery/>"))
        plain = EvaluateOp("<Request/>", "<UserQuery/>")
        assert encode_message(3, tagged) == encode_message(3, plain)
        assert encode_message.__wrapped__(3, tagged) == encode_message(3, plain)


def canonical(seq, message) -> bytes:
    return encode_message(seq, message)[HEADER_BYTES:]


class TestFrameMemo:
    def test_a_repeated_request_is_parsed_once_and_shares_its_field_values(self):
        decode_message.cache_clear()
        op = EvaluateOp("<Request/>", None, True)
        first_seq, first = decode_message(canonical(1, op))
        second_seq, second = decode_message(canonical(2, op))
        assert (first_seq, second_seq) == (1, 2)
        assert first == second == op
        assert first is not second
        # The request-parse memo is handed one str, its hash cached.
        assert second.request_xml is first.request_xml
        info = decode_message.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, MEMO_ENTRIES)

    def test_a_repeated_reply_is_rendered_once(self):
        encode_message.cache_clear()
        reply = EvaluateReply(True, None, "Permit", "p1")
        for seq in (1, 2, -0, 10**18 - 1):
            assert encode_message(seq, reply) == encode_message.__wrapped__(seq, reply)
        info = encode_message.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (3, 1, MEMO_ENTRIES)

    def test_ingest_records_are_never_shared(self):
        decode_message.cache_clear()
        payload = canonical(1, IngestOp("weather", [{"rainrate": 1}]))
        _, first = decode_message(payload)
        _, second = decode_message(payload)
        assert first == second
        assert first.records is not second.records
        assert decode_message.cache_info().currsize == 0

    def test_a_stats_reply_bypasses_both_memos(self):
        decode_message.cache_clear()
        encode_message.cache_clear()
        reply = StatsReply({"server.ops": 3, "gc.collections": [1, 0, 0]})
        frames = [encode_message(1, reply) for _ in range(2)]
        assert frames[0] == frames[1] == encode_message.__wrapped__(1, reply)
        (_, first), (_, second) = (decode_message(f[HEADER_BYTES:]) for f in frames)
        assert first == second == reply
        assert first.values is not second.values
        assert decode_message.cache_info().currsize == 0
        assert encode_message.cache_info().currsize == 0

    @pytest.mark.parametrize("key", [b'"seq"', b'"\\u0073eq"'], ids=["seq", "escaped-seq"])
    def test_a_seq_key_in_the_body_defers_to_the_whole_payload(self, key):
        decode_message.cache_clear()
        payload = b'{"seq":1,"op":"ping","body":{},' + key + b":2}"
        for _ in range(2):
            assert decode_message(payload) == (2, PingOp())
        assert decode_message.__wrapped__(payload) == (2, PingOp())
        assert decode_message.cache_info().currsize == 0

    def test_a_reply_naming_a_handle_is_rendered_but_never_kept(self):
        """A grant's handle is process-unique, so its reply cannot
        repeat: keeping it would only push out replies that can."""
        front = AsyncDataServer(make_data_server())
        grant = EvaluateOp(request_to_xml(Request.simple("LTA", "weather")))
        encode_message.cache_clear()
        for seq in range(20):
            reply = asyncio.run(front.execute(grant))
            assert reply.handle_uri is not None
            assert encode_message(seq, reply) == encode_message.__wrapped__(seq, reply)
        info = encode_message.cache_info()
        assert (info.hits, info.misses, info.currsize, info.bytes) == (0, 20, 0, 0)

    def test_failures_and_long_frames_are_never_memoised(self):
        decode_message.cache_clear()
        encode_message.cache_clear()
        long_op = EvaluateOp("x" * MEMO_MAX_TEXT)
        assert decode_message(canonical(1, long_op)) == (1, long_op)
        canonical_mistyped = b'{"seq":1,"op":"ack","body":{"op":"x","count":true}}'
        for payload in MISTYPED_PAYLOADS + [canonical_mistyped, b'{"seq":1,}']:
            for _ in range(2):
                with pytest.raises(TransportError):
                    decode_message(payload)
        assert decode_message.cache_info().currsize == 0
        assert encode_message.cache_info().currsize == 0

    def test_threads_share_both_memos(self):
        # More threads than cores, a tiny switch interval, evictions
        # forced by clears: every result must still be the oracle's.
        ops = [EvaluateOp(f"<Request n='{n}'/>", None, n % 2 == 0) for n in range(16)]
        replies = [AckReply("ingest", None, n) for n in range(16)]
        failures = []

        def work(offset):
            try:
                for round_number in range(60):
                    for n, (op, reply) in enumerate(zip(ops, replies)):
                        seq = offset + round_number * 16 + n
                        payload = canonical(seq, op)
                        seq_op = decode_message(payload)
                        assert seq_op == (seq, op)
                        assert seq_op[1] is not decode_message(payload)[1]
                        assert encode_message(seq, reply) == encode_message.__wrapped__(seq, reply)
                    if round_number % 20 == offset % 20:
                        decode_message.cache_clear()
                        encode_message.cache_clear()
            except AssertionError as error:
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(1000 * n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# -- memoised ≡ unmemoised -----------------------------------------------------------

CODEC_SETTINGS = dict(
    max_examples=CODEC_EXAMPLES,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
OP_NAMES = {cls: name for name, cls in MESSAGE_TYPES.items()}
MISTYPED_BODIES = [
    (envelope["op"], envelope["body"])
    for envelope in map(json.loads, MISTYPED_PAYLOADS)
]


def compact(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


@st.composite
def payloads(draw):
    """One payload: canonical, or one of the shapes the memo must not
    mistake for canonical, as ``bytes``, ``bytearray`` or ``memoryview``."""
    message = draw(any_message)
    seq = draw(st.integers(-10**6, 10**6))
    op, body = OP_NAMES[type(message)], dataclasses.asdict(message)
    exact = canonical(seq, message)
    tail = exact[exact.index(b","):]
    shape = draw(st.sampled_from([
        "canonical", "spaced", "reordered", "negative-zero-seq", "seq-of-19-digits",
        "seq-of-5000-digits", "duplicate-seq", "duplicate-op", "duplicate-body",
        "escaped-seq", "comma-brace", "mistyped", "invalid-utf-8",
    ]))
    if shape == "canonical":
        payload = exact
    elif shape == "spaced":
        payload = json.dumps({"seq": seq, "op": op, "body": body}).encode()
    elif shape == "reordered":
        payload = compact({"op": op, "seq": seq, "body": body})
    elif shape == "negative-zero-seq":
        payload = b'{"seq":-0' + tail
    elif shape == "seq-of-19-digits":
        payload = b'{"seq":' + b"1" * 19 + tail
    elif shape == "seq-of-5000-digits":
        payload = b'{"seq":' + b"7" * 5000 + tail
    elif shape == "duplicate-seq":
        payload = exact[:-1] + b',"seq":%d}' % draw(st.integers(-9, 9))
    elif shape == "duplicate-op":
        name = draw(st.sampled_from(sorted(MESSAGE_TYPES) + ["warp"]))
        payload = exact[:-1] + b',"op":' + compact(name) + b"}"
    elif shape == "duplicate-body":
        payload = exact[:-1] + b',"body":' + compact(draw(st.sampled_from([{}, [], {"x": 1}]))) + b"}"
    elif shape == "escaped-seq":
        payload = exact[:-1] + b',"\\u0073eq":%d}' % draw(st.integers(-9, 9))
    elif shape == "comma-brace":
        payload = b'{"seq":%d,}' % seq
    elif shape == "mistyped":
        op, body = draw(st.sampled_from(MISTYPED_BODIES))
        payload = compact({"seq": seq, "op": op, "body": body})
    else:
        cut = draw(st.integers(len(exact) - len(tail), len(exact)))
        payload = exact[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + exact[cut:]
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(payload)


def decoded(decode, payload):
    """``(summary, message)``: the seq, type and typed fields, or the
    exception type and text; ``message`` is None on a raise."""
    try:
        seq, message = decode(payload)
    except Exception as error:
        return ("raised", type(error), str(error)), None
    fields = tuple((name, type(value), value) for name, value in vars(message).items())
    return ("decoded", seq, type(message), fields), message


#: Field values that are ``==`` across JSON types, so a memo keyed by
#: value alone would hand one the bytes of another.
loose_value = st.sampled_from(
    [True, False, 1, 0, 1.0, 1.5, None, "x", _Tag("x"), ["x"], [{"x": 1}], {"x": 1}]
)


@st.composite
def loose_messages(draw):
    cls = draw(st.sampled_from(list(MESSAGE_TYPES.values())))
    names = [f.name for f in dataclasses.fields(cls)]
    return cls(**{name: draw(loose_value) for name in names})


def encoded(encode, seq, message):
    try:
        return ("encoded", encode(seq, message))
    except Exception as error:
        return ("raised", type(error), str(error))


class TestMemoisedCodecMatchesUnmemoised:
    @seed(SEED)
    @settings(**CODEC_SETTINGS)
    @given(payloads())
    def test_decode(self, payload):
        note(f"FUZZ_SEED={SEED}")
        decode_message.cache_clear()
        expected, _ = decoded(decode_message.__wrapped__, payload)
        first_summary, first = decoded(decode_message, payload)    # miss
        second_summary, second = decoded(decode_message, payload)  # hit
        assert first_summary == expected
        assert second_summary == expected
        if first is not None:
            assert first is not second
            for name, value in vars(first).items():
                if isinstance(value, (list, dict)):
                    assert value is not getattr(second, name)

    @seed(SEED)
    @settings(**CODEC_SETTINGS)
    @given(st.lists(
        st.tuples(
            st.integers(-10**19, 10**19) | st.sampled_from([True, 1.0, 10**18, -10**18 + 1]),
            any_message | loose_messages(),
        ),
        min_size=1, max_size=6,
    ))
    def test_encode(self, items):
        note(f"FUZZ_SEED={SEED}")
        encode_message.cache_clear()
        for seq, message in items:
            expected = encoded(encode_message.__wrapped__, seq, message)
            assert encoded(encode_message, seq, message) == expected   # miss
            assert encoded(encode_message, seq, message) == expected   # hit

    @pytest.mark.parametrize("first, second", [
        (EvaluateReply(ok=True), EvaluateReply(ok=1)),
        (AckReply("ingest", count=1), AckReply("ingest", count=True)),
        (AckReply("ingest", count=1), AckReply("ingest", count=1.0)),
        (ErrorReply("X", retryable=False), ErrorReply("X", retryable=0)),
        (EvaluateOp("<Request/>", None, True), EvaluateOp("<Request/>", None, 1)),
        (LoadOp("<Policy/>"), LoadOp(_Tag("<Policy/>"))),
    ], ids=["ok-1", "count-True", "count-1.0", "retryable-0", "decide_only-1", "str-subclass"])
    def test_an_equal_value_of_another_type_is_encoded_on_its_own(self, first, second):
        encode_message.cache_clear()
        assert encode_message(1, first) == encode_message.__wrapped__(1, first)
        assert first == second
        assert encoded(encode_message, 1, second) == encoded(encode_message.__wrapped__, 1, second)
