"""Client-side resilience pins: per-call deadlines, typed timeouts,
and retry-on-retryable semantics (PR 7).

A scripted wire-speaking stub server stands in for the real one where
reply content must be forced (retryable errors on demand, a server
that never answers); the end-to-end retry-through-restart case runs
against a real :class:`AsyncDataServer` over a supervised pool.
"""

import asyncio

import pytest

from repro.errors import ClientTimeoutError, TransportError
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
from repro.xacml.sharding import ProcessShardPool
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


class TestServedShardUnavailable:
    def test_server_maps_shard_unavailable_to_retryable_wire_error(self, monkeypatch):
        server = make_data_server(pdp_shards=4)
        store = server.instance.store
        request_xml = request_to_xml(Request.simple("LTA", "weather"))
        (shard_id,) = store.shards_for_request(Request.simple("LTA", "weather"))

        async def scenario(pool):
            server.instance.attach_evaluator(pool)
            async with AsyncDataServer(server) as front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, max_retries=0
                )
                async with client:
                    reply = await client.call(
                        EvaluateOp(request_xml, None, True)
                    )
                    assert isinstance(reply, EvaluateReply) and reply.ok
                    pool.kill_worker(shard_id)
                    deadline = asyncio.get_running_loop().time() + 10.0
                    while asyncio.get_running_loop().time() < deadline:
                        reply = await client.call(
                            EvaluateOp(request_xml, None, True)
                        )
                        if isinstance(reply, ErrorReply):
                            break
                    assert isinstance(reply, ErrorReply)
                    assert reply.error_kind == "ShardUnavailableError"
                    assert reply.retryable
                    # The connection survived the mapped error.
                    assert isinstance(await client.ping(), AckReply)

        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 30.0)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            asyncio.run(asyncio.wait_for(scenario(pool), TIMEOUT))

    def test_degraded_shard_maps_to_fatal_wire_error(self, monkeypatch):
        server = make_data_server(pdp_shards=4)
        store = server.instance.store
        request_xml = request_to_xml(Request.simple("LTA", "weather"))
        (shard_id,) = store.shards_for_request(Request.simple("LTA", "weather"))

        async def scenario(pool):
            server.instance.attach_evaluator(pool)
            async with AsyncDataServer(server) as front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, max_retries=0
                )
                async with client:
                    pool.kill_worker(shard_id)
                    deadline = asyncio.get_running_loop().time() + 10.0
                    while (
                        pool.health()["statuses"][shard_id] != "degraded"
                        and asyncio.get_running_loop().time() < deadline
                    ):
                        await asyncio.sleep(0.01)
                    reply = await client.call(
                        EvaluateOp(request_xml, None, True)
                    )
                    assert isinstance(reply, ErrorReply)
                    assert reply.error_kind == "ShardUnavailableError"
                    assert not reply.retryable  # degraded: retry won't help

        monkeypatch.setattr(ProcessShardPool, "MAX_RESTARTS", 0)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            asyncio.run(asyncio.wait_for(scenario(pool), TIMEOUT))

    def test_client_retries_ride_through_a_supervised_restart(self, monkeypatch):
        server = make_data_server(pdp_shards=4)
        store = server.instance.store
        request_xml = request_to_xml(Request.simple("LTA", "weather"))
        (shard_id,) = store.shards_for_request(Request.simple("LTA", "weather"))

        async def scenario(pool):
            server.instance.attach_evaluator(pool)
            async with AsyncDataServer(server) as front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port,
                    max_retries=40, retry_base_delay=0.02,
                    retry_max_delay=0.25,
                )
                async with client:
                    pool.kill_worker(shard_id)
                    # One logical call: the retry loop rides through
                    # death detection, backoff and catch-up, and comes
                    # back with the correct decision.
                    reply = await client.call(
                        EvaluateOp(request_xml, None, True)
                    )
                    assert isinstance(reply, EvaluateReply)
                    assert reply.ok and reply.policy_id == "p:LTA"
            assert pool.health()["worker_restarts"] >= 1

        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.3)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            asyncio.run(asyncio.wait_for(scenario(pool), TIMEOUT))
