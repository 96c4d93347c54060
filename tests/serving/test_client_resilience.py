"""Client-side resilience pins: per-call deadlines, typed timeouts,
and retry-on-retryable semantics (PR 7).

A scripted wire-speaking stub server stands in for the real one where
reply content must be forced (retryable errors on demand, a server
that never answers); the end-to-end retry cases run against a real
:class:`AsyncDataServer` whose PDP fails on demand.
"""

import asyncio

import pytest

from repro.errors import ClientTimeoutError, ShardUnavailableError, TransportError
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.client import RETRYABLE_OPS
from repro.serving.wire import (
    HEADER_BYTES,
    AckReply,
    ErrorReply,
    EvaluateOp,
    EvaluateReply,
    LoadOp,
    PingOp,
    _HEADER,
    decode_message,
    encode_message,
)
from repro.xacml.request import Request
from repro.xacml.xml_io import request_to_xml

from serving_helpers import TIMEOUT, make_data_server


async def start_scripted_server(reply_for):
    """A loopback server speaking the wire protocol whose replies come
    from ``reply_for(call_index, op) -> reply | None`` (None: stay
    silent — the hung-server shape)."""
    state = {"calls": 0}

    async def handler(reader, writer):
        try:
            while True:
                header = await reader.readexactly(HEADER_BYTES)
                (length,) = _HEADER.unpack(header)
                payload = await reader.readexactly(length)
                seq, op = decode_message(payload)
                index = state["calls"]
                state["calls"] += 1
                reply = reply_for(index, op)
                if reply is None:
                    continue  # swallow the op: never answer
                writer.write(encode_message(seq, reply))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], state


def evaluate_op():
    return EvaluateOp(request_to_xml(Request.simple("u", "weather")), None, True)


class TestDeadlines:
    def test_hung_server_raises_typed_timeout_not_transport_error(self):
        async def scenario():
            server, port, _ = await start_scripted_server(lambda i, op: None)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, timeout=0.2, max_retries=0
                )
                async with client:
                    with pytest.raises(ClientTimeoutError):
                        await client.ping()
                    assert client.timeouts == 1
                    # The positional protocol is desynchronized: the
                    # connection refuses further calls fast, telling
                    # the caller to reconnect.
                    with pytest.raises(TransportError, match="desynchronized"):
                        await client.ping()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_timeout_type_is_distinct_from_transport_errors(self):
        assert not issubclass(ClientTimeoutError, TransportError)
        assert not issubclass(TransportError, ClientTimeoutError)

    def test_per_call_timeout_overrides_the_default(self):
        async def scenario():
            server, port, _ = await start_scripted_server(lambda i, op: None)
            try:
                # Default would wait 30 s; the per-call override trips
                # in a fraction of that.
                client = await AsyncClient.connect("127.0.0.1", port)
                async with client:
                    started = asyncio.get_running_loop().time()
                    with pytest.raises(ClientTimeoutError):
                        await client.ping(timeout=0.2)
                    assert asyncio.get_running_loop().time() - started < 5.0
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


class TestRetryPolicy:
    def test_idempotent_op_retries_until_success(self):
        def reply_for(index, op):
            if index < 2:
                return ErrorReply("ShardUnavailableError", "mid-restart",
                                  retryable=True)
            return EvaluateReply(ok=True, decision="Permit", policy_id="p")

        async def scenario():
            server, port, _ = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port,
                    max_retries=5, retry_base_delay=0.01, retry_max_delay=0.05,
                )
                async with client:
                    reply = await client.call(evaluate_op())
                    assert isinstance(reply, EvaluateReply) and reply.ok
                    assert client.retries_performed == 2
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_mutations_are_never_auto_retried(self):
        assert LoadOp not in RETRYABLE_OPS

        def reply_for(index, op):
            return ErrorReply("ShardUnavailableError", "mid-restart",
                              retryable=True)

        async def scenario():
            server, port, state = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, max_retries=5, retry_base_delay=0.01
                )
                async with client:
                    reply = await client.call(LoadOp("<not-even-parsed/>"))
                    # The retryable refusal is surfaced, not resent:
                    # whether to replay a mutation is the caller's call.
                    assert isinstance(reply, ErrorReply) and reply.retryable
                    assert client.retries_performed == 0
                    assert state["calls"] == 1
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_non_retryable_errors_are_not_retried(self):
        def reply_for(index, op):
            return ErrorReply("PolicyStoreError", "no such policy")

        async def scenario():
            server, port, state = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, max_retries=5, retry_base_delay=0.01
                )
                async with client:
                    reply = await client.call(evaluate_op())
                    assert isinstance(reply, ErrorReply)
                    assert not reply.retryable
                    assert client.retries_performed == 0
                    assert state["calls"] == 1
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_exhausted_retries_surface_the_last_error(self):
        def reply_for(index, op):
            return ErrorReply("ShardUnavailableError", "still down",
                              retryable=True)

        async def scenario():
            server, port, state = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port,
                    max_retries=3, retry_base_delay=0.01, retry_max_delay=0.02,
                )
                async with client:
                    reply = await client.call(PingOp())
                    assert isinstance(reply, ErrorReply) and reply.retryable
                    assert client.retries_performed == 3
                    assert state["calls"] == 4  # 1 original + 3 retries
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


class TestRetryDeadlineBudget:
    """The whole retry loop — attempts *and* backoff sleeps — is
    bounded by one overall deadline (ISSUE 9).  Pre-fix, every attempt
    got a fresh per-call deadline, so ``timeout=T`` could block for
    ~``max_retries × (T + backoff)``."""

    def test_retry_loop_is_bounded_by_one_overall_deadline(self):
        def reply_for(index, op):
            return ErrorReply("ShardUnavailableError", "still down",
                              retryable=True)

        async def scenario():
            server, port, _ = await start_scripted_server(reply_for)
            try:
                # Pre-fix budget: up to 1000 jittered sleeps of ≤ 0.2 s
                # (~100 s expected).  Post-fix: the loop returns the
                # last retryable error within ~timeout.
                client = await AsyncClient.connect(
                    "127.0.0.1", port,
                    max_retries=1000,
                    retry_base_delay=0.2, retry_max_delay=0.2,
                )
                async with client:
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    reply = await client.call(PingOp(), timeout=0.5)
                    elapsed = loop.time() - started
                    assert isinstance(reply, ErrorReply) and reply.retryable
                    assert elapsed < 2.0
                    # The budget allowed real retries before expiring.
                    assert client.retries_performed >= 1
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_hang_after_retryable_error_times_out_at_the_call_deadline(self):
        def reply_for(index, op):
            if index == 0:
                return ErrorReply("ShardUnavailableError", "mid-restart",
                                  retryable=True)
            return None  # the retry attempt hangs

        async def scenario():
            server, port, _ = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port,
                    max_retries=5, retry_base_delay=0.01, retry_max_delay=0.02,
                )
                async with client:
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    with pytest.raises(ClientTimeoutError):
                        await client.call(PingOp(), timeout=0.4)
                    # The hung retry shares the original 0.4 s budget —
                    # it does not get a fresh 0.4 s of its own.
                    assert loop.time() - started < 1.5
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_unbounded_calls_still_retry_without_a_deadline(self):
        def reply_for(index, op):
            if index < 2:
                return ErrorReply("ShardUnavailableError", "mid-restart",
                                  retryable=True)
            return AckReply("ping")

        async def scenario():
            server, port, _ = await start_scripted_server(reply_for)
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, timeout=None,
                    max_retries=5, retry_base_delay=0.01, retry_max_delay=0.02,
                )
                async with client:
                    reply = await client.call(PingOp())
                    assert isinstance(reply, AckReply)
                    assert client.retries_performed == 2
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


class TestConnectCleanup:
    def test_failed_rcvbuf_connect_closes_the_raw_socket(self, monkeypatch):
        """The rcvbuf path creates the socket by hand; a failed
        ``sock_connect`` must close it instead of leaking the fd
        (ISSUE 9)."""
        import socket as socket_module

        created = []
        real_socket = socket_module.socket

        def tracking_socket(*args, **kwargs):
            sock = real_socket(*args, **kwargs)
            created.append(sock)
            return sock

        # Reserve a loopback port with no listener behind it.
        probe = real_socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        monkeypatch.setattr(socket_module, "socket", tracking_socket)

        async def scenario():
            with pytest.raises(OSError):
                await AsyncClient.connect("127.0.0.1", dead_port, rcvbuf=4096)

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        # The event loop creates AF_UNIX self-pipe sockets through the
        # same constructor; only the AF_INET one is the client's.
        inet = [s for s in created if s.family == socket_module.AF_INET]
        assert len(inet) == 1
        assert inet[0].fileno() == -1, "raw socket leaked on failed connect"


def decide_op():
    """A decide-only evaluate that LTA's policy permits."""
    return EvaluateOp(request_to_xml(Request.simple("LTA", "weather")), None, True)


def failing_pdp(monkeypatch, server, failures, **error):
    """Make the first *failures* evaluations of *server*'s PDP raise a
    :class:`ShardUnavailableError` (retryable unless *error* says
    otherwise); returns the list of calls."""
    pdp = server.instance.pdp
    evaluate, calls = pdp.evaluate, []

    def flaky(request):
        calls.append(request)
        if len(calls) <= failures:
            raise ShardUnavailableError(0, "restarting", **error)
        return evaluate(request)

    monkeypatch.setattr(pdp, "evaluate", flaky)
    return calls


async def served_call(server, op, **client_options):
    """One call to a served *server*; the connection must survive it."""
    async with AsyncDataServer(server) as front:
        client = await AsyncClient.connect("127.0.0.1", front.port, **client_options)
        async with client:
            reply = await client.call(op)
            assert isinstance(await client.ping(), AckReply)
            return reply, client.retries_performed


class TestServedShardUnavailable:
    def test_server_maps_shard_unavailable_to_retryable_wire_error(self, monkeypatch):
        server = make_data_server()
        failing_pdp(monkeypatch, server, failures=1)
        reply, _ = asyncio.run(asyncio.wait_for(
            served_call(server, decide_op(), max_retries=0), TIMEOUT
        ))
        assert isinstance(reply, ErrorReply)
        assert reply.error_kind == "ShardUnavailableError"
        assert reply.retryable

    def test_a_non_retryable_shard_error_maps_to_a_fatal_wire_error(self, monkeypatch):
        server = make_data_server()
        calls = failing_pdp(
            monkeypatch, server, failures=1, retryable=False, degraded=True
        )
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(server, decide_op(), max_retries=5, retry_base_delay=0.01),
            TIMEOUT,
        ))
        assert isinstance(reply, ErrorReply)
        assert reply.error_kind == "ShardUnavailableError"
        assert not reply.retryable  # retry won't help
        assert retries == 0 and len(calls) == 1

    def test_client_retries_ride_through_a_failing_pdp(self, monkeypatch):
        server = make_data_server()
        calls = failing_pdp(monkeypatch, server, failures=3)
        # One logical call: the retry loop rides through the failures
        # and comes back with the correct decision.
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(
                server, decide_op(),
                max_retries=10, retry_base_delay=0.01, retry_max_delay=0.05,
            ),
            TIMEOUT,
        ))
        assert isinstance(reply, EvaluateReply)
        assert reply.ok and reply.policy_id == "p:LTA"
        assert retries == 3 and len(calls) == 4


class Transient(RuntimeError):
    """An error of no shard that says it is transient."""

    retryable = True


def failing(monkeypatch, owner, name, error, failures=1):
    """Make the first *failures* calls of ``owner.name`` raise *error*;
    returns the list of calls."""
    method, calls = getattr(owner, name), []

    def flaky(*args):
        calls.append(args)
        if len(calls) <= failures:
            raise error
        return method(*args)

    monkeypatch.setattr(owner, name, flaky)
    return calls


class TestServedErrorFlag:
    """The served path forwards any error's own ``retryable`` flag,
    whatever raised it, and only a ``True`` one."""

    def test_any_error_that_says_it_is_retryable_is_ridden_through(self, monkeypatch):
        server = make_data_server()
        calls = failing(monkeypatch, server.instance.pdp, "evaluate", Transient("busy"), 2)
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(server, decide_op(), max_retries=5, retry_base_delay=0.01),
            TIMEOUT,
        ))
        assert isinstance(reply, EvaluateReply)
        assert reply.ok and reply.policy_id == "p:LTA"
        assert retries == 2 and len(calls) == 3

    def test_an_error_without_the_flag_is_fatal(self, monkeypatch):
        server = make_data_server()
        calls = failing(monkeypatch, server.instance.pdp, "evaluate", ValueError("bad"))
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(server, decide_op(), max_retries=5, retry_base_delay=0.01),
            TIMEOUT,
        ))
        assert isinstance(reply, ErrorReply)
        assert (reply.error_kind, reply.error_detail, reply.retryable) == ("ValueError", "bad", False)
        assert retries == 0 and len(calls) == 1

    @pytest.mark.parametrize("flag", [None, 1, "yes"], ids=["None", "int", "str"])
    def test_a_flag_that_is_not_true_is_answered_fatal(self, monkeypatch, flag):
        # The wire carries only a bool: forwarding the attribute as
        # raised would make the reply unencodable and drop the
        # connection, which ``served_call``'s closing ping would see.
        error = Transient("odd flag")
        error.retryable = flag
        server = make_data_server()
        calls = failing(monkeypatch, server.instance.pdp, "evaluate", error)
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(server, decide_op(), max_retries=5, retry_base_delay=0.01),
            TIMEOUT,
        ))
        assert isinstance(reply, ErrorReply)
        assert reply.error_kind == "Transient" and reply.retryable is False
        assert retries == 0 and len(calls) == 1

    def test_a_retryable_mutation_error_is_surfaced_not_retried(self, monkeypatch):
        server = make_data_server()
        calls = failing(monkeypatch, server, "load_policy", Transient("busy"))
        reply, retries = asyncio.run(asyncio.wait_for(
            served_call(server, LoadOp("<Policy/>"), max_retries=5, retry_base_delay=0.01),
            TIMEOUT,
        ))
        assert isinstance(reply, ErrorReply)
        assert reply.error_kind == "Transient" and reply.retryable
        assert retries == 0 and len(calls) == 1
