"""``asyncio``-based serving front-end over a real :class:`DataServer`.

The paper's prototype serves clients over sockets (Section 4.1); this
module puts a real TCP listener in front of the reproduction's data
server.  Design:

Connection anatomy
    Each accepted connection is one :class:`asyncio.Protocol` whose
    ``data_received`` feeds a sans-IO :class:`FrameDecoder`.  While
    nothing is pending on the connection, a *run* of coalescable ops
    (see :meth:`AsyncDataServer._coalescable`) is executed where it is
    decoded — one ``send`` completes each ``execute`` coroutine — and
    answered with one ``transport.write``.  Any other op, and every op
    behind it, goes to the connection's *backlog*, which one task drains
    in order (consecutive ingests as one :class:`IngestRun`), holding
    its replies until the backlog runs dry and then writing them in one
    ``transport.write`` (and before a ``stats`` op, which counts them).
    A client never observes reordering.

Backpressure
    Reading pauses while a connection's backlog holds ``pipeline_depth``
    ops, while all connections' decoded-but-unanswered ops number
    ``max_in_flight``, and from ``pause_writing`` to ``resume_writing``
    (``write_high_water`` unsent bytes); frames read meanwhile wait
    undecoded, and ``read_pauses`` counts every pause.  An op is
    answered once its reply is handed to the transport, or once
    writing resumes if it was paused.

Execution
    The front-end owns no evaluator: what evaluates is
    ``server.instance.pdp``, the one PDP the instance was built with.
    Every operation runs on the event-loop thread, which serializes
    them exactly like the in-process :class:`DataServer` (whose engine
    and registries are not thread-safe) — the differential harness
    relies on this.  A grant leaves its PDP call to the PEP, which
    times it, so ``ServerTiming.pdp`` keeps meaning.  Nothing here
    simulates anything: no virtual clock.

Failure containment
    Payload-level garbage inside an intact frame produces an in-order
    :class:`ErrorReply` and the connection lives on.  Framing-level
    corruption (oversized length prefix, truncated frame) kills only
    that connection.  A client vanishing mid-pipeline drops its backlog
    and releases its in-flight ops; other connections never notice.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from operator import add
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.user_query import UserQuery
from repro.errors import TransportError
from repro.framework.messages import StreamRequestMessage
from repro.framework.server import DataServer, ServerTiming
from repro.obs import own_young_generation, pdp_tag, release_young_generation, spans
from repro.serving.stats import LatencyRecorder, server_registry
from repro.serving.wire import (
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
    encode_message,
)
from repro.xacml.response import Decision
from repro.xacml.xml_io import parse_request_xml


class IngestRun(NamedTuple):
    """Consecutive backlogged ingests as one op, answered with the list
    of their replies: each stream's lists go in one ``push_batches``, in
    order of first appearance (``docs/serving.md``, *Runs and the backlog*)."""

    ops: List[IngestOp]


def _complete(step):
    """Run a coroutine that cannot suspend; return its result."""
    try:
        step.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a coalescable op suspended")


class _Connection(asyncio.Protocol):
    """One accepted connection; see the module docstring."""

    def __init__(self, front: "AsyncDataServer"):
        self.front = front
        self.decoder = FrameDecoder()
        self.transport = None
        self.unread: Deque[bytes] = deque()    # frames read while a cap held
        #: ``(seq, decode-done stamp, message)`` of ops behind a pending one.
        self.backlog: Deque[tuple] = deque()
        self.drainer: Optional[asyncio.Task] = None     # while the backlog lasts
        #: Held replies: frames, ``(op class name or None, decode-done
        #: stamp)`` and, while a span sink is attached, encode-done stamps.
        self.frames: List[bytes] = []
        self.held: List[Tuple[Optional[str], float]] = []
        self.encoded: List[float] = []
        self.unsent: List[tuple] = []   # ``(held, encoded, flush stamp)`` while paused
        self.owed = 0   # admitted ops not yet answered
        self.writable: Optional[asyncio.Future] = None  # while writing is paused
        self.paused = self.eof = False

    def connection_made(self, transport) -> None:
        front = self.front
        self.transport = transport
        front.connections.add(self)
        front.connections_total += 1
        front.active_connections += 1
        sock = transport.get_extra_info("socket")
        if front.sndbuf is not None and sock is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, front.sndbuf)
        transport.set_write_buffer_limits(high=front.write_high_water)

    def data_received(self, data: bytes) -> None:
        try:
            self.unread.extend(self.decoder.feed(data))
        except TransportError:
            return self._fail()
        self._admit()

    def eof_received(self) -> bool:
        try:
            self.decoder.eof()
        except TransportError:
            return self._fail()
        self.eof = True
        self._close_when_done()
        return True     # keep writing: the pipelined tail is still owed

    def connection_lost(self, exc) -> None:
        self.front.protocol_errors += exc is not None
        self._drop()
        self.front.connections.discard(self)
        self.front.waiting.discard(self)
        self.front.active_connections -= 1

    def pause_writing(self) -> None:
        self.writable = asyncio.get_running_loop().create_future()
        self._steer()

    def resume_writing(self) -> None:
        writable, self.writable = self.writable, None
        if not writable.done():
            writable.set_result(None)
        self._answered()
        self._admit()

    def _admit(self) -> None:
        """Decode what the caps allow; answer a run or backlog each op."""
        front, unread, backlog = self.front, self.unread, self.backlog
        sink = spans.sink
        while unread and self.writable is None and len(backlog) < front.pipeline_depth:
            if front.in_flight >= front.max_in_flight:
                if not self.held:
                    break
                self._flush()       # the run's replies free their slots
                continue
            if sink is not None:
                decoding = time.perf_counter()
            try:
                seq, message = decode_message(unread.popleft())
            except TransportError as error:
                # An intact frame with a garbage payload: answer it
                # (in order, like any op) and keep serving.
                seq, message = -1, ErrorReply("TransportError", str(error))
            received = time.perf_counter()
            if sink is not None:
                sink("wire.decode", decoding, received, None)
            front.in_flight += 1
            self.owed += 1
            if self.drainer is None and front._coalescable(message):
                self._answer(seq, received, message, None if isinstance(
                    message, ErrorReply) else _complete(front.execute(message)))
                if len(self.held) >= front.pipeline_depth:
                    self._flush()
            else:
                backlog.append((seq, received, message))
                if self.drainer is None:
                    self.drainer = asyncio.get_running_loop().create_task(self._drain())
        self._flush()
        self._steer()
        self._close_when_done()

    async def _drain(self) -> None:
        """Answer the backlog in order, awaiting each op (the ingests at
        its head: one :class:`IngestRun`) and holding every reply; write
        the held replies before a ``stats`` op runs, so its snapshot
        counts them, and once the backlog runs dry.  Each read it admits
        writes them too, and it admits only after answering the op whose
        pop made room: no more than ``pipeline_depth`` are ever held."""
        front, backlog = self.front, self.backlog
        try:
            while backlog:
                run = [backlog.popleft()]
                while isinstance(run[0][2], IngestOp) and backlog and isinstance(
                        backlog[0][2], IngestOp):
                    run.append(backlog.popleft())
                sink = spans.sink
                for _, received, _ in run if sink is not None else ():
                    sink("server.backlog", received, time.perf_counter(), None)
                message = run[0][2]
                if isinstance(message, StatsOp):
                    await self._written()
                if isinstance(message, IngestOp):
                    replies = await front.execute(IngestRun([op for _, _, op in run]))
                else:
                    replies = [None if isinstance(message, ErrorReply)
                               else await front.execute(message)]
                for (seq, received, message), reply in zip(run, replies):
                    self._answer(seq, received, message, reply)
                if self.paused:
                    self._admit()
                if not backlog:
                    await self._written()
        finally:
            self.drainer = None
        self._close_when_done()

    def _answer(self, seq: int, received: float, message, reply) -> None:
        """Hold the encoded reply to *message* (``None``: a decode failure)."""
        self.held.append((None if reply is None else type(message).__name__, received))
        sink = spans.sink
        if sink is not None:
            encoding = time.perf_counter()
        self.frames.append(encode_message(seq, message if reply is None else reply))
        if sink is not None:
            self.encoded.append(time.perf_counter())
            sink("wire.encode", encoding, self.encoded[-1], None)

    def _flush(self) -> None:
        """Hand the held replies to the transport in one write."""
        if self.held:
            self.transport.write(b"".join(self.frames))
            self.front.writes += 1
            self.unsent.append((self.held, self.encoded, time.perf_counter()))
            self.frames, self.held, self.encoded = [], [], []
            if self.writable is None:
                self._answered()

    async def _written(self) -> None:
        self._flush()
        while self.writable is not None:
            await self.writable

    def _answered(self) -> None:
        """Record and release every reply handed to the transport."""
        drained, sink, count = time.perf_counter(), spans.sink, 0
        for held, encoded, flushing in self.unsent:
            self.front.stats.record_since(drained, held)
            count += len(held)
            for stamp in encoded if sink is not None else ():
                sink("server.flush_wait", stamp, flushing, None)
                sink("server.drain", flushing, drained, None)
        self.unsent.clear()
        self._release(count)

    def _release(self, count: int) -> None:
        front = self.front
        self.owed -= count
        front.in_flight -= count
        if front.waiting and front.in_flight < front.max_in_flight:
            for connection in front.waiting:
                asyncio.get_running_loop().call_soon(connection._admit)
            front.waiting = set()

    def _steer(self) -> None:
        """Read only while every cap has room; count each pause."""
        front = self.front
        if self.transport.is_closing():
            return
        capped = front.in_flight >= front.max_in_flight
        if capped:
            front.waiting.add(self)
        stop = (capped or bool(self.unread) or self.writable is not None
                or len(self.backlog) >= front.pipeline_depth)
        if stop != self.paused and not self.eof:
            self.paused = stop
            front.read_pauses += stop
            (self.transport.pause_reading if stop else self.transport.resume_reading)()

    def _close_when_done(self) -> None:
        if self.eof and self.drainer is None and not self.unread:
            self.transport.close()

    def _fail(self) -> None:
        """A framing-level violation: drop this connection only."""
        self.front.protocol_errors += 1
        self._drop()
        self.transport.close()

    def _drop(self) -> None:
        """Forget every op this connection still owes; stop its drainer."""
        if self.drainer is not None:
            self.drainer.cancel()
        for pending in (self.unread, self.backlog, self.unsent, self.held):
            pending.clear()
        self._release(self.owed)


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
        self.max_in_flight = max(1, max_in_flight)
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
        #: Read pauses: how often a cap or the write watermark stopped
        #: a connection's reading (the backpressure signal).
        self.read_pauses = 0  # guarded by: event-loop
        #: Connections dropped for framing-level protocol violations.
        self.protocol_errors = 0  # guarded by: event-loop
        self.in_flight = 0  # guarded by: event-loop
        #: ``transport.write`` calls: ``ops / writes`` is replies per write.
        self.writes = 0  # guarded by: event-loop
        #: Ingest runs answered and the ops in them (a lone ingest is a run).
        self.ingest_runs = self.ingest_run_ops = 0  # guarded by: event-loop
        self.connections: Set[_Connection] = set()  # guarded by: event-loop
        #: Connections paused until ``in_flight`` drops below the cap.
        self.waiting: Set[_Connection] = set()  # guarded by: event-loop
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        #: What a ``stats`` op answers with.
        self.registry = server_registry(self)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "AsyncDataServer":
        self._asyncio_server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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
        drainers = [c.drainer for c in self.connections if c.drainer is not None]
        for connection in list(self.connections):
            connection.transport.abort()
        await asyncio.sleep(0)      # every connection_lost runs first
        await asyncio.gather(*drainers, return_exceptions=True)
        await listener.wait_closed()

    def _coalescable(self, message) -> bool:
        """Whether *message* may be answered in a run.

        Only a decide-only evaluate, a ping and a pre-made decode-error
        reply: none changes state, one ``send`` completes each, and a
        run holds at most ``pipeline_depth`` replies.  Anything else — a
        grant, a load, an ingest — goes to the backlog, behind the run's
        replies, which its read writes when it ends; the drainer holds
        the backlog's replies and writes them in one write once it runs
        dry (before a ``stats`` op, too).
        """
        if isinstance(message, EvaluateOp):
            return message.decide_only
        return isinstance(message, (PingOp, ErrorReply))

    # -- operation execution -----------------------------------------------------

    async def execute(self, message):
        """Execute one decoded op or :class:`IngestRun`; never raises —
        failures become :class:`ErrorReply`, exactly what goes on the
        wire.  Public so harnesses can replay served semantics in-process.
        """
        try:
            return await self._execute(message)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            # An error that says it is transient (``retryable is True``)
            # is flagged so resilient clients back off and resend; any
            # other value of the attribute is not a wire bool.
            return ErrorReply(type(error).__name__, str(error),
                              retryable=getattr(error, "retryable", False) is True)

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
            return (await self._execute(IngestRun([message])))[0]
        if isinstance(message, IngestRun):
            self.ingest_runs += 1
            self.ingest_run_ops += len(message.ops)
            lists: Dict[str, list] = {}
            for op in message.ops:
                lists.setdefault(op.stream, []).append(op.records)
            engine, outcomes = self.server.instance.engine, {}
            for stream, records in lists.items():
                try:
                    outcomes[stream] = iter(engine.push_batches(stream, records))
                except Exception as error:     # a kept traceback holds this frame
                    outcomes[stream] = iter([error.with_traceback(None)] * len(records))
            return [AckReply("ingest", count=outcome) if isinstance(outcome, int)
                    else ErrorReply(type(outcome).__name__, str(outcome))
                    for outcome in (next(outcomes[op.stream]) for op in message.ops)]
        if isinstance(message, PingOp):
            return AckReply("ping")
        if isinstance(message, StatsOp):
            return StatsReply(self.registry.snapshot())
        return ErrorReply("TransportError", f"unserveable op {type(message).__name__}")

    async def _evaluate(self, op: EvaluateOp):
        sink = spans.sink
        if sink is not None:
            parsing = time.perf_counter()
        request = parse_request_xml(op.request_xml)
        if sink is not None:
            evaluating = time.perf_counter()
            sink("xml_io.parse_request", parsing, evaluating, None)
        if op.decide_only:
            pdp = self.server.instance.pdp
            if sink is not None:
                hits = pdp.cache.hits
            response = pdp.evaluate(request)
            if sink is not None:
                sink("pdp.evaluate", evaluating, time.perf_counter(), pdp_tag(pdp, hits))
            return EvaluateReply(
                ok=response.decision is Decision.PERMIT,
                decision=response.decision.value,
                policy_id=response.policy_id,
            )
        # A grant: the PEP calls (and stamps) the evaluator.
        user_query = (
            UserQuery.from_xml(op.user_query_xml) if op.user_query_xml else None
        )
        message = StreamRequestMessage(request, user_query)
        response, timing = self.server.process(message)
        self.timing = ServerTiming._make(map(add, self.timing, timing))
        return EvaluateReply(
            ok=response.ok,
            handle_uri=response.handle_uri,
            decision=response.decision,
            policy_id=response.policy_id,
            error_kind=response.error_kind,
            error_detail=response.error_detail,
        )
