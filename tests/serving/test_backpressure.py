"""Backpressure, pipelining-order and cancellation tests for the
serving front-end.

The knobs make the effects observable at test scale: tiny kernel
buffers (``sndbuf``/``rcvbuf``) so the network path absorbs only a few
KB, a low write watermark so the transport pauses writing early, and a
shallow backlog so the read pause (``read_pauses``) is the visible
symptom of a connection being backed up.

Write coalescing is pinned by *counts*, not timing:
``TestCoalescedReplies`` feeds frames straight to one connection's
protocol over a transport that records every ``write`` — no socket, no
sleeps.
"""

import asyncio

from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.server import _Connection
from repro.serving.wire import (
    EvaluateOp,
    FrameDecoder,
    IngestOp,
    PingOp,
    encode_message,
    iter_messages,
)
from repro.streams.sources import WeatherSource
from repro.xacml.request import Request
from repro.xacml.xml_io import request_to_xml

from serving_helpers import TIMEOUT, make_data_server


def evaluate_op(subject="LTA", stream="weather", decide_only=True):
    return EvaluateOp(
        request_to_xml(Request.simple(subject, stream)), None, decide_only
    )


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


class TestBackpressure:
    def test_slow_reader_pauses_the_read_loop_at_the_watermark(self):
        async def scenario():
            server = make_data_server()
            front = AsyncDataServer(
                server,
                pipeline_depth=4,
                write_high_water=1024,
                sndbuf=4096,
                max_in_flight=1024,  # the watermark and the backlog, not the cap
            )
            async with front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, rcvbuf=4096
                )
                async with client:
                    # Pipeline far more responses than the kernel buffers
                    # + watermark can absorb, without reading any.
                    n = 400
                    seqs = [client.send_nowait(evaluate_op()) for _ in range(n)]
                    await client._writer.drain()
                    # Writing must pause at the watermark, and reading
                    # with it.
                    deadline = asyncio.get_running_loop().time() + TIMEOUT
                    while front.read_pauses == 0:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.01)
                    # Releasing the reader (by reading) completes every
                    # reply, in exact request order.
                    replies = [await client._read_reply(seq) for seq in seqs]
                    assert all(r.ok and r.policy_id == "p:LTA" for r in replies)
            assert front.read_pauses > 0

        run(scenario())

    def test_in_flight_cap_pauses_reading_across_connections(self):
        # A peer that stopped reading holds the cap's worth of answered
        # but unsent replies.  The other connection's backlog and writes
        # are far from their own limits, so only the cap can pause it.
        cap, per_connection = 3, 10

        async def scenario():
            front = AsyncDataServer(
                make_data_server(),
                max_in_flight=cap,
                pipeline_depth=64,
                write_high_water=1 << 20,
            )
            stalled, _ = connected(front, [evaluate_op()] * per_connection, stall=True)
            assert front.in_flight == cap and front.read_pauses == 1
            other, transport = connected(front, [evaluate_op()] * per_connection)
            assert not transport.reading and front.read_pauses == 2
            assert transport.writes == [] and len(other.unread) == per_connection
            assert other.writable is None and not other.backlog
            # Every write of the other connection samples what is in flight.
            in_flight, write = [], transport.write
            transport.write = lambda data: (in_flight.append(front.in_flight), write(data))
            stalled.resume_writing()
            await asyncio.sleep(0)      # the cap's release readmits the other
            assert transport.reading and not other.unread
            replies = transport.replies()
            assert [seq for seq, _ in replies] == list(range(per_connection))
            assert all(reply.ok for _, reply in replies)
            assert max(in_flight) == cap
            assert front.in_flight == stalled.owed == other.owed == 0

        run(scenario())


class TestPipelineOrdering:
    def test_no_response_reordering_within_a_connection(self):
        async def scenario():
            server = make_data_server()
            async with AsyncDataServer(server) as front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port
                ) as client:
                    # Alternate cheap pings with expensive registering
                    # evaluates: any out-of-order completion would trip
                    # the client's echoed-sequence check.
                    ops = []
                    for i in range(40):
                        ops.append(
                            PingOp() if i % 2 else evaluate_op(decide_only=False)
                        )
                    replies = await client.pipeline(ops)
                    for i, reply in enumerate(replies):
                        if i % 2:
                            assert reply.op == "ping"
                        else:
                            assert reply.ok and reply.handle_uri is not None

        run(scenario())


class TestCancellationMidPipeline:
    def test_aborted_client_leaves_other_connections_served(self):
        async def scenario():
            server = make_data_server(subjects=("LTA", "NEA"))
            front = AsyncDataServer(server, max_in_flight=6)
            async with front:
                doomed = await AsyncClient.connect("127.0.0.1", front.port)
                healthy = await AsyncClient.connect("127.0.0.1", front.port)
                # Fill the pipeline, confirm the server is mid-stream
                # (first reply back), then vanish without reading the
                # rest.
                seqs = [doomed.send_nowait(evaluate_op()) for _ in range(30)]
                await doomed._writer.drain()
                first = await doomed._read_reply(seqs[0])
                assert first.ok
                doomed._writer.transport.abort()
                # The healthy connection must keep working — and must be
                # able to push more ops than max_in_flight, proving the
                # aborted pipeline's permits were all released.
                async with healthy:
                    replies = await healthy.pipeline(
                        [evaluate_op("NEA") for _ in range(30)]
                    )
                    assert all(r.ok and r.policy_id == "p:NEA" for r in replies)
                deadline = asyncio.get_running_loop().time() + TIMEOUT
                while front.active_connections > 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)

        run(scenario())

    def test_server_close_with_live_pipelines_is_clean(self):
        async def scenario():
            server = make_data_server()
            front = AsyncDataServer(server)
            await front.start()
            clients = [
                await AsyncClient.connect("127.0.0.1", front.port)
                for _ in range(3)
            ]
            for client in clients:
                for _ in range(10):
                    client.send_nowait(evaluate_op())
                await client._writer.drain()
            await front.aclose()  # must not hang or error
            for client in clients:
                await client.aclose()

        run(scenario())


class RecordingTransport:
    """What a connection needs of its transport; keeps every ``write``.
    ``stall`` makes the first write pause writing for good (a peer that
    stopped reading)."""

    def __init__(self, stall=False):
        self.writes = []
        self.stall = stall
        self.connection = None
        self.reading = True

    def write(self, data):
        self.writes.append(data)
        if self.stall and len(self.writes) == 1:
            self.connection.pause_writing()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return False

    def get_extra_info(self, name):
        return None

    def set_write_buffer_limits(self, high):
        pass

    def replies(self):
        """``(seq, reply)`` of every frame written, in wire order."""
        return list(iter_messages(FrameDecoder(), b"".join(self.writes)))


def connected(front, ops, stall=False):
    """One connection of *front* that has just read *ops* in one chunk."""
    transport = RecordingTransport(stall)
    transport.connection = connection = _Connection(front)
    connection.connection_made(transport)
    connection.data_received(
        b"".join(encode_message(seq, op) for seq, op in enumerate(ops))
    )
    return connection, transport


async def drained(connection):
    """Wait for the connection's backlog to be answered."""
    if connection.drainer is not None:
        await connection.drainer


class TestCoalescedReplies:
    def test_a_queued_burst_is_answered_in_order_through_fewer_writes(self):
        async def scenario():
            front = AsyncDataServer(make_data_server())
            connection, transport = connected(front, [evaluate_op() for _ in range(16)])
            await drained(connection)
            replies = transport.replies()
            assert [seq for seq, _ in replies] == list(range(16))
            assert all(reply.policy_id == "p:LTA" for _, reply in replies)
            assert len(transport.writes) < len(replies)
            # Latency is recorded, and the in-flight slot returned, per op.
            assert front.stats.count("EvaluateOp") == 16
            assert front.in_flight == connection.owed == 0

        run(scenario())

    def test_held_replies_are_written_before_a_state_changing_op_runs(self):
        async def scenario():
            server = make_data_server()
            front = AsyncDataServer(server)
            transports = []
            engine = server.instance.engine
            written_at_entry = []
            push_batch = engine.push_batch

            def recording_push_batch(stream, records):
                written_at_entry.append(transports[0].replies())
                return push_batch(stream, records)

            engine.push_batch = recording_push_batch
            ingest = IngestOp("weather", WeatherSource(seed=3).records(2))
            ops = [evaluate_op(), PingOp(), ingest, evaluate_op()]
            connection, transport = connected(front, ops)
            transports.append(transport)
            await drained(connection)
            # Entering push_batch, the two cheap replies read ahead of
            # the ingest were already on the wire (in one write)...
            (before_ingest,) = written_at_entry
            assert [seq for seq, _ in before_ingest] == [0, 1]
            # ...and the ingest's own reply did not wait for the op behind it.
            assert [len(FrameDecoder().feed(w)) for w in transport.writes] == [2, 1, 1]
            assert [seq for seq, _ in transport.replies()] == [0, 1, 2, 3]
            assert transport.replies()[2][1].count == 2

        run(scenario())

    def test_client_vanishing_mid_burst_returns_every_permit(self):
        async def scenario():
            front = AsyncDataServer(make_data_server())
            ingest = IngestOp("weather", WeatherSource(seed=3).records(2))
            ops = [evaluate_op() for _ in range(16)] + [ingest] + [evaluate_op()] * 3
            connection, transport = connected(front, ops, stall=True)
            # The run's replies are written but unsent, the ingest and
            # the ops behind it wait in the backlog, and reading paused.
            assert front.in_flight == 20 and len(connection.backlog) == 4
            assert not transport.reading and front.read_pauses == 1
            await asyncio.sleep(0)      # the drainer waits for the writes
            drainer = connection.drainer
            connection.connection_lost(ConnectionResetError())
            await asyncio.gather(drainer, return_exceptions=True)
            assert drainer.cancelled()
            assert not connection.backlog and not connection.unread
            assert front.in_flight == connection.owed == 0
            assert front.stats.count() == 0     # nothing drained, nothing recorded
            assert front.active_connections == 0 and front.protocol_errors == 1

        run(scenario())
