"""Backpressure, pipelining-order and cancellation tests for the
serving front-end.

The knobs make the effects observable at test scale: tiny kernel
buffers (``sndbuf``/``rcvbuf``) so the network path absorbs only a few
KB, a low write watermark so ``drain()`` blocks early, and a shallow
pipeline queue so the reader pause (``read_pauses``) is the visible
symptom of the responder being backed up.

The responder's write coalescing is pinned by *counts*, not timing:
``TestCoalescedReplies`` runs ``_respond_loop`` over a hand-filled queue
and a writer that records every ``write`` — no socket, no sleeps.
"""

import asyncio
import time

from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.server import _CLOSE
from repro.serving.wire import (
    EvaluateOp,
    FrameDecoder,
    IngestOp,
    PingOp,
    iter_messages,
)
from repro.streams.sources import WeatherSource
from repro.xacml.pdp import PolicyDecisionPoint
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
                max_in_flight=1024,  # the queue, not the semaphore, pauses
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
                    # The responder's drain() must block, the pipeline
                    # queue fill, and the reader stall.
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

    def test_in_flight_semaphore_pauses_the_reader(self):
        async def scenario():
            server = make_data_server()
            front = AsyncDataServer(
                server,
                max_in_flight=2,
                pipeline_depth=64,
                write_high_water=1024,
                sndbuf=4096,
            )
            async with front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port, rcvbuf=4096
                ) as client:
                    seqs = [client.send_nowait(evaluate_op()) for _ in range(300)]
                    await client._writer.drain()
                    deadline = asyncio.get_running_loop().time() + TIMEOUT
                    while front.read_pauses == 0:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.01)
                    replies = [await client._read_reply(seq) for seq in seqs]
                    assert all(r.ok for r in replies)

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


class RecordingWriter:
    """What the responder needs of a ``StreamWriter``; keeps every
    ``write``.  ``stall`` makes ``drain()`` wait forever (a peer that
    stopped reading) and sets ``draining`` when the responder gets there."""

    def __init__(self, stall=False):
        self.writes = []
        self.stall = stall
        self.draining = asyncio.Event()

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        self.draining.set()
        if self.stall:
            await asyncio.Event().wait()

    def replies(self):
        """``(seq, reply)`` of every frame written, in wire order."""
        return list(iter_messages(FrameDecoder(), b"".join(self.writes)))


async def queued(front, ops, close=True):
    """A pipeline queue holding *ops* as the reader would leave them."""
    queue = asyncio.Queue(front.pipeline_depth)
    for seq, op in enumerate(ops):
        await front._enqueue(queue, (seq, time.perf_counter(), op))
    if close:
        await queue.put(_CLOSE)
    return queue


class TestCoalescedReplies:
    def test_a_queued_burst_is_answered_in_order_through_fewer_writes(self):
        async def scenario():
            front = AsyncDataServer(make_data_server())
            permits = front._in_flight._value
            writer = RecordingWriter()
            queue = await queued(front, [evaluate_op() for _ in range(16)])
            await front._respond_loop(queue, writer)
            replies = writer.replies()
            assert [seq for seq, _ in replies] == list(range(16))
            assert all(reply.policy_id == "p:LTA" for _, reply in replies)
            assert len(writer.writes) < len(replies)
            # Latency is recorded, and the permit returned, per op.
            assert front.stats.count("EvaluateOp") == 16
            assert front._in_flight._value == permits

        run(scenario())

    def test_held_replies_are_written_before_a_state_changing_op_runs(self):
        async def scenario():
            server = make_data_server()
            front = AsyncDataServer(server)
            writer = RecordingWriter()
            engine = server.instance.engine
            written_at_entry = []
            push_batch = engine.push_batch

            def recording_push_batch(stream, records):
                written_at_entry.append(writer.replies())
                return push_batch(stream, records)

            engine.push_batch = recording_push_batch
            ingest = IngestOp("weather", WeatherSource(seed=3).records(2))
            ops = [evaluate_op(), PingOp(), ingest, evaluate_op()]
            await front._respond_loop(await queued(front, ops), writer)
            # Entering push_batch, the two cheap replies queued ahead of
            # the ingest were already on the wire (in one write)...
            (before_ingest,) = written_at_entry
            assert [seq for seq, _ in before_ingest] == [0, 1]
            # ...and the ingest's own reply did not wait for the op behind it.
            assert [len(FrameDecoder().feed(w)) for w in writer.writes] == [2, 1, 1]
            assert [seq for seq, _ in writer.replies()] == [0, 1, 2, 3]
            assert writer.replies()[2][1].count == 2

        run(scenario())

    def test_an_evaluate_that_leaves_the_loop_is_never_held(self):
        # A blocking evaluator's decision comes back through an executor
        # hop: the reader refills the queue meanwhile, so holding such
        # replies for "the rest of the burst" could hold them for as long
        # as the client keeps sending.
        class BlockingEvaluator(PolicyDecisionPoint):
            blocking = True

        async def scenario():
            server = make_data_server()
            server.instance.attach_evaluator(BlockingEvaluator(server.instance.store))
            front = AsyncDataServer(server)
            writer = RecordingWriter()
            queue = await queued(front, [evaluate_op() for _ in range(4)])
            await front._respond_loop(queue, writer)
            assert [seq for seq, _ in writer.replies()] == [0, 1, 2, 3]
            assert len(writer.writes) == 4

        run(scenario())

    def test_client_vanishing_mid_burst_returns_every_permit(self):
        async def scenario():
            front = AsyncDataServer(make_data_server())
            permits = front._in_flight._value
            writer = RecordingWriter(stall=True)
            queue = await queued(front, [evaluate_op() for _ in range(16)], close=False)
            assert front._in_flight._value == permits - 16
            responder = asyncio.create_task(front._respond_loop(queue, writer))
            await writer.draining.wait()    # the whole burst is held, undrained
            responder.cancel()
            await asyncio.gather(responder, return_exceptions=True)
            assert responder.cancelled()
            assert queue.empty()
            assert front._in_flight._value == permits
            assert front.stats.count() == 0     # nothing drained, nothing recorded

        run(scenario())
