"""``asyncio``-based serving front-end over a real :class:`DataServer`.

The paper's prototype serves clients over sockets (Section 4.1); this
module puts a real TCP listener in front of the reproduction's data
server.  Design:

Connection anatomy
    Each accepted connection runs two tasks.  The *reader* parses
    length-prefixed frames and enqueues decoded operations onto a
    bounded per-connection queue (the pipeline); the *responder* —
    exactly one per connection — executes operations and writes replies
    in arrival order, so a pipelined client never observes reordering
    within its connection.  The replies of a pipelined burst of cheap,
    state-free ops leave in one ``write`` + ``drain()``; anything that
    changes state or can suspend is preceded and followed by a flush.

Backpressure
    Three mechanisms compose, each pausing the reader when saturated:
    a global in-flight semaphore (``max_in_flight`` decoded-but-
    unanswered operations across all connections), the bounded pipeline
    queue (``pipeline_depth`` per connection), and the transport's
    write-buffer high watermark — ``drain()`` in the responder blocks
    once ``write_high_water`` bytes sit unsent, which keeps the queue
    full, which pauses the reader.  ``read_pauses`` counts reader
    stalls so tests can observe the watermark engaging.

Execution
    The front-end owns no evaluator: what evaluates is
    ``server.instance.pdp`` (see ``XacmlPlusInstance.attach_evaluator``).
    Operations run on the event-loop thread, which serializes them
    exactly like the in-process :class:`DataServer` (whose engine and
    registries are not thread-safe) — the differential harness relies
    on this.  The one hop off the loop: an evaluator declaring
    ``blocking = True`` (a :class:`ProcessShardPool`, multi-driver safe)
    is called from an executor thread and its decision re-enters on-loop
    enforcement through ``process(..., pdp_response=)``; an inline one
    is left for the PEP to call and time, so ``ServerTiming.pdp`` keeps
    meaning.  Nothing here simulates anything: no virtual clock.

Failure containment
    Payload-level garbage inside an intact frame produces an in-order
    :class:`ErrorReply` and the connection lives on.  Framing-level
    corruption (oversized length prefix, truncated frame) kills only
    that connection.  A client vanishing mid-pipeline cancels its
    responder and releases its in-flight permits; other connections
    never notice.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import time
from operator import add
from typing import List, Optional, Set, Tuple

from repro.core.user_query import UserQuery
from repro.errors import ShardUnavailableError, TransportError
from repro.framework.messages import StreamRequestMessage
from repro.framework.server import DataServer, ServerTiming
from repro.obs import (
    own_young_generation, pdp_counters, pdp_tag, release_young_generation, spans,
)
from repro.serving.stats import LatencyRecorder, server_registry
from repro.serving.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    AckReply,
    ErrorReply,
    EvaluateOp,
    EvaluateReply,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    StatsOp,
    StatsReply,
    UpdateOp,
    _HEADER,
    decode_message,
    encode_message,
)
from repro.xacml.response import Decision
from repro.xacml.xml_io import parse_request_xml

logger = logging.getLogger(__name__)

_CLOSE = object()


class _ReplyBurst:
    """One connection's replies between two flushes (responder-owned)."""

    __slots__ = ("frames", "held", "broken", "encoded")

    def __init__(self) -> None:
        #: Encoded replies not yet written, in request order.
        self.frames: List[bytes] = []
        #: ``(op class name or None, decode-done stamp)`` of every op
        #: taken off the queue whose in-flight permit is still held.
        self.held: List[Tuple[Optional[str], float]] = []
        #: The peer stopped reading: execute on, write nothing more.
        self.broken = False
        #: Encode-done stamps, kept only while a span sink is attached.
        self.encoded: List[float] = []


class AsyncDataServer:
    """TCP front-end: concurrent connections, pipelining, backpressure.

    Use::

        front = await AsyncDataServer(server).start()
        ...
        await front.aclose()

    ``port=0`` (the default) binds an ephemeral loopback port; the
    bound port is available as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        server: DataServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 256,
        pipeline_depth: int = 32,
        write_high_water: int = 64 * 1024,
        sndbuf: Optional[int] = None,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.pipeline_depth = max(1, pipeline_depth)
        self.write_high_water = write_high_water
        #: Shrink the kernel send buffer (per accepted socket) so the
        #: userspace write watermark — not ~200 KB of kernel buffering —
        #: decides when backpressure engages.  Tests use this.
        self.sndbuf = sndbuf
        self.stats = LatencyRecorder()
        #: The sum of every :class:`ServerTiming` ``server.process`` returned.
        self.timing = ServerTiming(0.0, 0.0, 0.0, 0.0, 0)
        self.connections_total = 0  # guarded by: event-loop
        self.active_connections = 0  # guarded by: event-loop
        #: Reader stalls: how often the pipeline queue or the in-flight
        #: semaphore made the reader wait (the backpressure signal).
        self.read_pauses = 0  # guarded by: event-loop
        #: Connections dropped for framing-level protocol violations.
        self.protocol_errors = 0  # guarded by: event-loop
        self._in_flight = asyncio.Semaphore(max(1, max_in_flight))
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._connection_tasks: Set[asyncio.Task] = set()
        self.queues: Set[asyncio.Queue] = set()  # guarded by: event-loop
        #: What a ``stats`` op answers with.
        self.registry = server_registry(self)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "AsyncDataServer":
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        own_young_generation()
        return self

    async def __aenter__(self) -> "AsyncDataServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, then tear down every live connection."""
        listener, self._asyncio_server = self._asyncio_server, None
        if listener is None:
            return
        release_young_generation()
        listener.close()
        await listener.wait_closed()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        self._connection_tasks.clear()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        self.connections_total += 1
        self.active_connections += 1
        sock = writer.get_extra_info("socket")
        if self.sndbuf is not None and sock is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf)
        writer.transport.set_write_buffer_limits(high=self.write_high_water)
        queue: asyncio.Queue = asyncio.Queue(self.pipeline_depth)
        self.queues.add(queue)
        responder = asyncio.create_task(self._respond_loop(queue, writer))
        clean_eof = False
        try:
            while True:
                sink = spans.sink
                if sink is not None:
                    reading = time.perf_counter()
                try:
                    header = await reader.readexactly(HEADER_BYTES)
                except asyncio.IncompleteReadError as error:
                    if error.partial:
                        raise TransportError(
                            "connection closed mid-frame (truncated header)"
                        )
                    clean_eof = True
                    break
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"declared frame length {length} exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit"
                    )
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    raise TransportError(
                        "connection closed mid-frame (truncated body)"
                    )
                if sink is not None:
                    decoding = time.perf_counter()
                try:
                    seq, message = decode_message(payload)
                except TransportError as error:
                    # An intact frame with a garbage payload: answer it
                    # (in order, like any op) and keep serving.
                    seq, message = -1, ErrorReply("TransportError", str(error))
                received = time.perf_counter()
                await self._enqueue(queue, (seq, received, message))
                if sink is not None:
                    sink("server.read", reading, decoding, None)
                    sink("wire.decode", decoding, received, None)
                    sink("server.enqueue", received, time.perf_counter(), None)
        except (TransportError, ConnectionResetError, OSError):
            self.protocol_errors += 1
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection; finish the
            # teardown below and end the task cleanly (re-raising only
            # trips asyncio's noisy connection-callback logging).
            pass
        finally:
            try:
                if clean_eof:
                    # Let the responder flush the pipelined tail first.
                    await queue.put(_CLOSE)
                    try:
                        await responder
                    except Exception as error:
                        logger.debug("responder failed during drain: %s", error)
                else:
                    responder.cancel()
                    try:
                        await responder
                    except (asyncio.CancelledError, Exception) as error:
                        logger.debug("responder cancel teardown: %r", error)
                    # Permits of dropped (still-queued) items.
                    while not queue.empty():
                        if queue.get_nowait() is not _CLOSE:
                            self._in_flight.release()
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception as error:
                    logger.debug("wait_closed after teardown: %s", error)
            except asyncio.CancelledError:
                # Cancelled mid-teardown (server shutdown): finish with
                # the synchronous essentials and end cleanly.
                responder.cancel()
                writer.close()
            finally:
                self.active_connections -= 1
                self.queues.discard(queue)

    async def _enqueue(self, queue: asyncio.Queue, item) -> None:
        """Admit one decoded op, pausing the reader when saturated."""
        if self._in_flight.locked():
            self.read_pauses += 1
        await self._in_flight.acquire()
        try:
            if queue.full():
                self.read_pauses += 1
            await queue.put(item)
        except BaseException:
            self._in_flight.release()
            raise

    async def _respond_loop(self, queue: asyncio.Queue, writer) -> None:
        """The single per-connection responder: strict arrival order.

        Each wake-up serves the whole burst already sitting in the
        queue and writes its replies with one ``write`` and one
        ``drain()``; a reply never waits behind anything but ops that
        :meth:`_coalescable` admits (see there), because held replies
        are flushed before and after every other op.  An op's latency is
        recorded, and its in-flight permit released, once its reply has
        drained.

        Exits only on the close sentinel or cancellation — a peer that
        stops reading breaks the *writes*, not the loop, so already-
        pipelined operations still execute and release their permits
        (and a full queue can never deadlock the reader's shutdown).
        """
        burst = _ReplyBurst()
        try:
            while True:
                if queue.empty():
                    await self._flush(burst, writer)
                sink = spans.sink
                if sink is not None:
                    waiting = time.perf_counter()
                item = await queue.get()  # suspends only on an empty queue
                if sink is not None:
                    sink("server.dequeue", waiting, time.perf_counter(), None)
                if item is _CLOSE:
                    await self._flush(burst, writer)
                    return
                seq, received, message = item
                coalescable = self._coalescable(message)
                if not coalescable:
                    await self._flush(burst, writer)
                if isinstance(message, ErrorReply):
                    burst.held.append((None, received))  # decode failure, pre-made
                    reply = message
                else:
                    burst.held.append((type(message).__name__, received))
                    reply = await self.execute(message)
                if sink is not None:
                    encoding = time.perf_counter()
                burst.frames.append(encode_message(seq, reply))
                if sink is not None:
                    burst.encoded.append(time.perf_counter())
                    sink("wire.encode", encoding, burst.encoded[-1], None)
                if not coalescable:
                    await self._flush(burst, writer)
        finally:
            # Cancelled (or failed) mid-burst: the permits of ops taken
            # off the queue whose replies never drained.
            for _ in burst.held:
                self._in_flight.release()

    def _coalescable(self, message) -> bool:
        """Whether *message*'s reply may wait for the rest of its burst.

        Only ops that change no state and cannot suspend: a decide-only
        evaluate on an inline evaluator, a ping, a pre-made decode-error
        reply.  Their cost is bounded and no ``await`` separates them,
        so a burst is at most one queue-full (``pipeline_depth``) of
        cheap ops; anything else — a grant, a load, an ingest, an
        evaluate that hops to a worker pool — gets the held replies
        written before it starts and its own reply written when it ends.
        """
        if isinstance(message, EvaluateOp):
            return message.decide_only and not getattr(
                self.server.instance.pdp, "blocking", False
            )
        return isinstance(message, (PingOp, ErrorReply))

    async def _flush(self, burst: _ReplyBurst, writer) -> None:
        """Write the held replies at once; account for them once drained."""
        if not burst.held:
            return
        flushing = time.perf_counter()
        if not burst.broken:
            try:
                writer.write(b"".join(burst.frames))
                await writer.drain()
            except asyncio.CancelledError:
                raise
            except Exception as error:
                logger.debug("reply write failed, connection broken: %s", error)
                burst.broken = True
        drained = time.perf_counter()
        if not burst.broken:
            self.stats.record_since(drained, burst.held)
        for _ in burst.held:
            self._in_flight.release()
        sink = spans.sink
        if sink is not None:
            for encoded in burst.encoded:
                sink("server.flush_wait", encoded, flushing, None)
                sink("server.drain", flushing, drained, None)
        burst.encoded.clear()
        burst.frames.clear()
        burst.held.clear()

    # -- operation execution -----------------------------------------------------

    async def execute(self, message):
        """Execute one decoded op; never raises — failures become
        :class:`ErrorReply`, exactly what goes on the wire.  Public so
        differential harnesses can replay served semantics in-process.
        """
        try:
            return await self._execute(message)
        except asyncio.CancelledError:
            raise
        except ShardUnavailableError as error:
            # A dead/restarting shard is a transient, *retryable* fault
            # (unless the shard was declared degraded): flag it so
            # resilient clients back off and retry while the supervisor
            # respawns the worker — the connection stays usable either
            # way.
            return ErrorReply(
                type(error).__name__, str(error), retryable=error.retryable
            )
        except Exception as error:
            return ErrorReply(type(error).__name__, str(error))

    async def _execute(self, message):
        if isinstance(message, EvaluateOp):
            return await self._evaluate(message)
        if isinstance(message, LoadOp):
            self.server.load_policy(message.policy_xml)
            return AckReply("load")
        if isinstance(message, UpdateOp):
            self.server.update_policy(message.policy_xml)
            return AckReply("update")
        if isinstance(message, RevokeOp):
            self.server.remove_policy(message.policy_id)
            return AckReply("revoke", detail=message.policy_id)
        if isinstance(message, IngestOp):
            count = self.server.instance.engine.push_batch(
                message.stream, message.records
            )
            return AckReply("ingest", count=count)
        if isinstance(message, PingOp):
            return AckReply("ping")
        if isinstance(message, StatsOp):
            return StatsReply(await self.snapshot())
        return ErrorReply("TransportError", f"unserveable op {type(message).__name__}")

    async def snapshot(self) -> dict:
        """``registry.snapshot()``; a blocking evaluator's view (a pool
        asks its workers) is read off the loop, as ``evaluate`` is."""
        registry = self.registry
        if not getattr(self.server.instance.pdp, "blocking", False):
            return registry.snapshot()
        values = await asyncio.get_running_loop().run_in_executor(
            None, registry.snapshot, ["pdp"]
        )
        values.update(registry.snapshot([p for p in registry.prefixes if p != "pdp"]))
        return values

    async def _evaluate(self, op: EvaluateOp):
        sink = spans.sink
        if sink is not None:
            parsing = time.perf_counter()
        request = parse_request_xml(op.request_xml)
        pdp = self.server.instance.pdp
        if sink is not None:
            evaluating = time.perf_counter()
            sink("xml_io.parse_request", parsing, evaluating, None)
            before = pdp_counters(pdp)
        pdp_response = None
        if getattr(pdp, "blocking", False):
            # Executor threads are drivers of the (multi-driver) pool.
            pdp_response = await asyncio.get_running_loop().run_in_executor(
                None, pdp.evaluate, request
            )
        elif op.decide_only:
            pdp_response = pdp.evaluate(request)
        # Otherwise the PEP calls (and stamps) the inline evaluator.
        if sink is not None and pdp_response is not None:
            sink("pdp.evaluate", evaluating, time.perf_counter(), pdp_tag(pdp, before))
        if op.decide_only:
            return EvaluateReply(
                ok=pdp_response.decision is Decision.PERMIT,
                decision=pdp_response.decision.value,
                policy_id=pdp_response.policy_id,
            )
        user_query = (
            UserQuery.from_xml(op.user_query_xml) if op.user_query_xml else None
        )
        message = StreamRequestMessage(request, user_query)
        response, timing = self.server.process(message, pdp_response=pdp_response)
        self.timing = ServerTiming._make(map(add, self.timing, timing))
        return EvaluateReply(
            ok=response.ok,
            handle_uri=response.handle_uri,
            decision=response.decision,
            policy_id=response.policy_id,
            error_kind=response.error_kind,
            error_detail=response.error_detail,
        )
