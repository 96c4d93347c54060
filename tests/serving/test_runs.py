"""Socket-level pins for the front end's two paths.

A connection answers a run of cheap ops (decide-only evaluates, pings,
undecodable frames) where it decodes them, and backlogs everything from
the first op that changes state or can suspend.  Whatever the split,
the replies are the same and leave in request order, however the bytes
of one pipelined script arrive: in one write, one byte at a time, or cut
at random boundaries.  The ingests at the head of the backlog are one
run: each stream's lists reach its plan in one dispatch, and the run is
answered in one write (``TestIngestRuns``).  The drainer holds every
reply it makes and writes them once the backlog runs dry, before a
``stats`` op, and whenever a read is admitted (``TestBacklogWrites``).
"""

import asyncio
import dataclasses
import random
import socket

import pytest

from repro.core import stream_policy
from repro.core.user_query import UserQuery
from repro.serving import AsyncDataServer
from repro.serving.wire import (
    EvaluateOp,
    FrameDecoder,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    StatsOp,
    UpdateOp,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import AggregateOperator, AggregationSpec, WindowSpec, WindowType
from repro.streams.sources import WeatherSource
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

from serving_helpers import TIMEOUT, connected, drained, make_data_server, weather_graph


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, TIMEOUT))


def decide(subject="LTA"):
    return EvaluateOp(request_to_xml(Request.simple(subject, "weather")), None, True)


UNDECODABLE = b"\xff not a frame payload"

#: Decide-only runs around every op that goes to the backlog.
SCRIPT = [
    decide(),
    decide(),
    PingOp(),
    UNDECODABLE,
    decide(),
    IngestOp("weather", WeatherSource(seed=5).records(3)),
    decide(),
    EvaluateOp(
        request_to_xml(Request.simple("LTA", "weather")),
        UserQuery("weather", filter_condition="rainrate > 7").to_xml(),
    ),
    LoadOp(policy_to_xml(stream_policy("p:NEA", "weather", weather_graph(7),
                                       subject="NEA"))),
    decide("NEA"),
    PingOp(),
]
SEQS = [-1 if op is UNDECODABLE else seq for seq, op in enumerate(SCRIPT)]
WIRE = b"".join(
    encode_frame(op) if op is UNDECODABLE else encode_message(seq, op)
    for seq, op in enumerate(SCRIPT)
)


def one_write():
    return [WIRE]


def byte_by_byte():
    return [WIRE[i:i + 1] for i in range(len(WIRE))]


def random_cuts(seed):
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, len(WIRE)), 40))
    return [WIRE[a:b] for a, b in zip([0, *cuts], [*cuts, len(WIRE)])]


async def replies_to(chunks):
    """Send *chunks*, each as its own write, to a fresh server; read
    every reply of :data:`SCRIPT` in wire order."""
    async with AsyncDataServer(make_data_server()) as front:
        reader, writer = await asyncio.open_connection("127.0.0.1", front.port)
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            if len(chunk) < len(WIRE):
                await asyncio.sleep(0)      # let the server read this chunk alone
        decoder, replies = FrameDecoder(), []
        while len(replies) < len(SCRIPT):
            replies.extend(decoder.feed(await reader.read(1 << 16)))
        writer.close()
        await writer.wait_closed()
        assert front.protocol_errors == 0 and front.in_flight == 0
    return [comparable(*decode_message(payload)) for payload in replies]


def comparable(seq, reply):
    """A grant's handle numbers queries process-wide: keep only that it has one."""
    if getattr(reply, "handle_uri", None):
        reply = dataclasses.replace(reply, handle_uri="stream://")
    return seq, reply


@pytest.fixture(scope="module")
def expected():
    replies = run(replies_to(one_write()))
    assert [seq for seq, _ in replies] == SEQS
    kinds = [type(reply).__name__ for _, reply in replies]
    assert kinds == ["EvaluateReply"] * 2 + ["AckReply", "ErrorReply", "EvaluateReply",
                     "AckReply", "EvaluateReply", "EvaluateReply", "AckReply",
                     "EvaluateReply", "AckReply"]
    assert replies[5][1].count == 3 and replies[7][1].handle_uri == "stream://"
    assert replies[9][1].policy_id == "p:NEA"
    return replies


class TestSameRepliesHoweverTheBytesArrive:
    def test_one_write(self, expected):
        assert run(replies_to(one_write())) == expected

    def test_one_byte_per_write(self, expected):
        assert run(replies_to(byte_by_byte())) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_cuts(self, expected, seed):
        assert run(replies_to(random_cuts(seed))) == expected


def received_now(sock):
    try:
        return sock.recv(1 << 20)
    except BlockingIOError:
        return b""


class TestHeldRepliesAndOrdering:
    def test_a_run_is_on_the_wire_before_the_ingest_and_its_tail_after(self):
        ingest = IngestOp("weather", WeatherSource(seed=3).records(2))
        ops = [decide(), PingOp(), ingest, decide()]

        async def scenario():
            server = make_data_server()
            engine = server.instance.engine
            push_batches = engine.push_batches
            loop = asyncio.get_running_loop()
            async with AsyncDataServer(server) as front:
                with socket.create_connection(("127.0.0.1", front.port)) as sock:
                    sock.setblocking(False)
                    on_entry = []

                    def recording_push_batches(stream, record_lists):
                        on_entry.append(received_now(sock))
                        return push_batches(stream, record_lists)

                    engine.push_batches = recording_push_batches
                    await loop.sock_sendall(sock, b"".join(
                        encode_message(seq, op) for seq, op in enumerate(ops)))
                    decoder = FrameDecoder()
                    while not on_entry:
                        await asyncio.sleep(0.001)
                    before = [decode_message(p) for p in decoder.feed(on_entry[0])]
                    after = []
                    while len(before) + len(after) < len(ops):
                        after.extend(decode_message(p) for p in decoder.feed(
                            await loop.sock_recv(sock, 1 << 16)))
            return before, after

        before, after = run(scenario())
        # Entering push_batches, the run read ahead of the ingest is on the
        # wire; the decide behind the ingest is answered after it.
        assert [seq for seq, _ in before] == [0, 1]
        assert [seq for seq, _ in after] == [2, 3]
        assert after[0][1].count == 2 and after[1][1].policy_id == "p:LTA"


STREAMS = ("w0", "w1", "w2")


def recorded_dispatches(engine):
    """Record ``(stream, record lists)`` per ``push_batches`` call."""
    calls, push_batches = [], engine.push_batches

    def recording(stream, record_lists):
        calls.append((stream, list(record_lists)))
        return push_batches(stream, record_lists)

    engine.push_batches = recording
    return calls


class TestIngestRuns:
    def test_fifteen_ingests_over_three_streams_are_three_dispatches_and_one_write(self):
        records = WeatherSource(seed=4).records(30)
        ops = [IngestOp(STREAMS[n % 3], records[2 * n:2 * n + 2]) for n in range(15)]

        async def scenario():
            server = make_data_server(subjects=(), streams=STREAMS)
            front = AsyncDataServer(server)
            calls = recorded_dispatches(server.instance.engine)
            connection, transport = connected(front, ops)
            await drained(connection)
            return front, server.instance.engine, calls, transport

        front, engine, calls, transport = run(scenario())
        # Each stream's five lists, in seq order, in one dispatch.
        assert calls == [(stream, [op.records for op in ops if op.stream == stream])
                         for stream in STREAMS]
        assert len(transport.writes) == 1
        replies = transport.replies()
        assert [seq for seq, _ in replies] == list(range(15))
        assert all(reply.op == "ingest" and reply.count == 2 for _, reply in replies)
        assert [engine.catalog.get(s).total_appended for s in STREAMS] == [10, 10, 10]
        assert (front.ingest_runs, front.ingest_run_ops) == (1, 15)

    def test_a_dispatch_that_raises_answers_every_op_of_its_stream_with_the_error(self):
        """The one divergence from in-process serial: the ingest ahead of
        the overflow would have been acknowledged; in the run, every op
        on that stream shares the dispatch and its error.  Another
        stream's ops and a refused list keep their own replies."""
        good = WeatherSource(seed=4).records(8)
        huge = [dict(good[4], winddirection=10**400)]
        refused = [dict(good[5], samplingtime="yesterday")]
        ops = [PingOp(), IngestOp("w0", good[2:4]), IngestOp("w1", good[:2]),
               IngestOp("w0", huge), IngestOp("w0", refused), IngestOp("w0", good[6:])]

        async def scenario():
            server = make_data_server(subjects=(), streams=STREAMS)
            server.instance.engine.push_batch("w0", good[:2])
            server.instance.engine.register_query(QueryGraph("w0").append(AggregateOperator(
                WindowSpec(WindowType.TUPLE, 2, 1), [AggregationSpec.parse("winddirection:avg")])))
            front = AsyncDataServer(server)
            connection, transport = connected(front, ops)
            await drained(connection)
            return transport

        transport = run(scenario())
        replies = [reply for _, reply in transport.replies()]
        assert replies[0].op == "ping" and replies[2].count == 2
        assert [replies[n].error_kind for n in (1, 3, 5)] == ["OverflowError"] * 3
        assert replies[4].error_kind == "SchemaError"
        assert len(transport.writes) == 2    # the ping, then the run


def grant(subject="LTA"):
    return EvaluateOp(request_to_xml(Request.simple(subject, "weather")))


def policy_xml(subject, threshold=7):
    return policy_to_xml(stream_policy(f"p:{subject}", "weather", weather_graph(threshold),
                                       subject=subject))


def replies_per_write(transport):
    return [len(FrameDecoder().feed(data)) for data in transport.writes]


class TestBacklogWrites:
    def test_sixteen_state_changing_ops_are_answered_in_one_write(self):
        subjects = ["NEA", "SCDF", "PUB", "URA"]
        ops = [op for subject in subjects for op in (
            grant(), LoadOp(policy_xml(subject)), UpdateOp(policy_xml(subject, 9)),
            RevokeOp(f"p:{subject}"))]

        async def scenario():
            front = AsyncDataServer(make_data_server())
            connection, transport = connected(front, ops)
            await drained(connection)
            return front, transport

        front, transport = run(scenario())
        replies = transport.replies()
        assert [seq for seq, _ in replies] == list(range(16))
        assert all(reply.handle_uri for _, reply in replies[0::4])
        assert [reply.op for _, reply in replies if type(reply).__name__ == "AckReply"] == [
            "load", "update", "revoke"] * 4
        assert replies_per_write(transport) == [16]
        assert front.writes == 1 and front.stats.count() == 16
        assert front.in_flight == 0

    def test_a_shallow_backlog_never_holds_more_than_its_depth(self):
        """Depth 4: each admitted read writes what is held, and the
        drainer admits only after answering the run whose pop made room,
        so even an ingest run refilling the backlog keeps every write
        (everything held at once) to 4 replies."""
        records = WeatherSource(seed=6).records(12)
        ops = [LoadOp(policy_xml("NEA")),
               *(IngestOp("weather", records[2 * n:2 * n + 2]) for n in range(6)),
               UpdateOp(policy_xml("NEA", 9)), grant("NEA"), RevokeOp("p:NEA")]

        async def scenario():
            front = AsyncDataServer(make_data_server(), pipeline_depth=4)
            connection, transport = connected(front, ops)
            await drained(connection)
            return front, transport

        front, transport = run(scenario())
        replies = transport.replies()
        assert [seq for seq, _ in replies] == list(range(10))
        assert [reply.count for _, reply in replies[1:7]] == [2] * 6
        assert replies[8][1].handle_uri and replies[9][1].op == "revoke"
        assert replies_per_write(transport) == [1, 4, 2, 3]
        assert front.read_pauses > 0 and front.in_flight == 0

    def test_a_stats_op_counts_every_op_answered_ahead_of_it(self):
        ops = [RevokeOp("p:LTA"), RevokeOp("p:SCDF"), StatsOp()]

        async def scenario():
            front = AsyncDataServer(make_data_server(subjects=("LTA", "SCDF")))
            connection, transport = connected(front, ops)
            await drained(connection)
            return transport

        transport = run(scenario())
        replies = transport.replies()
        assert [reply.op for _, reply in replies[:2]] == ["revoke", "revoke"]
        values = replies[2][1].values
        assert values["server.ops"] == values["server.latency.RevokeOp.count"] == 2
        assert values["server.writes"] == 1
        assert replies_per_write(transport) == [2, 1]


class TestHalfClose:
    def test_a_pipelined_tail_is_answered_after_the_peer_stops_sending(self):
        grants = [EvaluateOp(request_to_xml(Request.simple("LTA", "weather")))] * 6
        ops = [decide(), *grants, PingOp(), decide()]

        async def scenario():
            front = AsyncDataServer(make_data_server(), max_in_flight=2, pipeline_depth=2)
            async with front:
                reader, writer = await asyncio.open_connection("127.0.0.1", front.port)
                writer.write(b"".join(encode_message(seq, op) for seq, op in enumerate(ops)))
                writer.write_eof()
                wire = await reader.read()      # every reply, then the server's EOF
                writer.close()
                await writer.wait_closed()
                return front, [decode_message(p) for p in FrameDecoder().feed(wire)]

        front, replies = run(scenario())
        assert [seq for seq, _ in replies] == list(range(len(ops)))
        assert all(reply.handle_uri for _, reply in replies[1:7])
        assert front.read_pauses > 0 and front.in_flight == 0
        assert front.protocol_errors == 0 and front.active_connections == 0
