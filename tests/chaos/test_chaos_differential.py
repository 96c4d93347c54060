"""Chaos differential suite: served decisions under injected faults
must equal fault-free serial replay once retries settle.

This is PR 4's differential-equivalence discipline extended *through*
crashes: N async clients fire seeded mixed op scripts (disjoint
namespaces, as in ``tests/serving/test_served_equivalence.py``) at a
real :class:`AsyncDataServer` while the fault harness kills shard
workers mid-traffic, drops invalidation mirrors, garbles wire frames
and stalls readers.  The decision stream each client observes — after
client-side retries — must be identical to the same scripts replayed
serially against an identical, fault-free in-process deployment.

Covered for ``pdp_shards ∈ {None, 4}`` (the acceptance matrix):

- worker kills under mutation churn, ``"fallback"`` mode — crashes
  invisible, decisions identical (the fallback PDP reads the same
  authoritative store);
- worker kills under mutation churn, ``"error"`` mode — clients see
  retryable errors and settle to identical decisions by retrying;
- dropped invalidation mirrors — the shard is retired before the
  mutation returns and rebuilt under supervision, so no worker ever
  serves from a silently-stale replica;
- garbled frames and stalled readers on the unsharded path — contained
  to an in-order error reply / a backpressure stall, never corrupting
  neighbouring replies.

Seeding: fixed by default (CI chaos-smoke is reproducible); the
nightly deep pass sets ``CHAOS_DEEP=1`` for longer scripts at an
unpinned seed, printed as ``CHAOS_SEED=...`` for replay via the
``CHAOS_SEED`` env var.
"""

import asyncio
import os
import random
import threading

import pytest

from repro.core import stream_policy
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.wire import (
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
    encode_frame,
    encode_message,
)
from repro.framework.server import DataServer
from repro.loadgen.mix import derive_seed
from repro.streams.engine import StreamEngine
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.testing.faults import (
    MirrorChaos,
    WorkerKiller,
    garble_payload,
    stalled_pipeline,
)
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool
from repro.xacml.xml_io import policy_to_xml, request_to_xml

DEEP = bool(os.environ.get("CHAOS_DEEP"))
if "CHAOS_SEED" in os.environ:
    SEED = int(os.environ["CHAOS_SEED"])
elif DEEP:
    SEED = random.SystemRandom().randrange(2**32)
else:
    SEED = 20120917  # the paper's conference year/month, stable across runs
print(f"CHAOS_SEED={SEED}")

N_CLIENTS = 4
SCRIPT_LENGTH = 150 if DEEP else 40
N_SHARDS = 4
TIMEOUT = 240.0 if DEEP else 120.0

#: Client retry policy generous enough to outlast any supervised
#: restart (backoff 0.01 s, doubling, cap 2 s ⇒ recovery in tens of
#: milliseconds; ten retries span seconds).
RETRY_KW = dict(max_retries=10, retry_base_delay=0.02, retry_max_delay=0.25)


def client_stream(client_id):
    return f"weather_c{client_id}"


def weather_graph(threshold, stream):
    return QueryGraph(stream).append(FilterOperator(f"rainrate > {threshold}"))


def make_env(pdp_shards):
    engine = StreamEngine()
    for client_id in range(N_CLIENTS):
        engine.register_input_stream(client_stream(client_id), WEATHER_SCHEMA)
    return DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
        pdp_shards=pdp_shards,
    )


def build_script(client_id, rng, length=SCRIPT_LENGTH):
    """One client's seeded op sequence, confined to its namespace."""
    stream = client_stream(client_id)
    subjects = [f"c{client_id}:s{j}" for j in range(4)]
    live = []
    next_policy = 0
    ops = []

    def policy_for(pid, subject, threshold):
        return stream_policy(
            pid, stream, weather_graph(threshold, stream), subject=subject
        )

    def load_op():
        nonlocal next_policy
        pid = f"c{client_id}:p{next_policy}"
        next_policy += 1
        live.append(pid)
        return LoadOp(
            policy_to_xml(policy_for(pid, rng.choice(subjects), rng.randint(1, 9)))
        )

    ops.append(load_op())
    ops.append(load_op())
    for _ in range(length):
        kind = rng.choice(
            ["evaluate"] * 4 + ["load", "update", "revoke", "ingest"]
        )
        if kind == "evaluate":
            subject = rng.choice(subjects + [f"c{client_id}:stranger"])
            ops.append(
                EvaluateOp(
                    request_to_xml(Request.simple(subject, stream)),
                    None,
                    rng.random() < 0.5,
                )
            )
        elif kind == "load":
            ops.append(load_op())
        elif kind == "update":
            pid = rng.choice(live) if live and rng.random() < 0.8 else (
                f"c{client_id}:ghost"
            )
            ops.append(
                UpdateOp(
                    policy_to_xml(
                        policy_for(pid, rng.choice(subjects), rng.randint(1, 9))
                    )
                )
            )
        elif kind == "revoke":
            if live and rng.random() < 0.8:
                pid = live.pop(rng.randrange(len(live)))
            else:
                pid = f"c{client_id}:ghost"
            ops.append(RevokeOp(pid))
        else:
            records = [
                {
                    "samplingtime": i,
                    "temperature": rng.uniform(20, 35),
                    "humidity": rng.uniform(40, 95),
                    "solarradiation": rng.uniform(0, 800),
                    "rainrate": rng.uniform(0, 12),
                    "windspeed": rng.uniform(0, 20),
                    "winddirection": rng.randrange(360),
                    "barometer": rng.uniform(980, 1040),
                }
                for i in range(rng.randint(1, 5))
            ]
            ops.append(IngestOp(stream, records))
    return ops


def build_scripts(seed=SEED):
    return [
        build_script(client_id, random.Random(derive_seed(seed, client_id)))
        for client_id in range(N_CLIENTS)
    ]


def signature(reply):
    """The decision-relevant projection of one reply (no handle URIs)."""
    if isinstance(reply, EvaluateReply):
        return (
            "evaluate",
            reply.ok,
            reply.decision,
            reply.policy_id,
            reply.error_kind,
            reply.handle_uri is not None,
        )
    if isinstance(reply, AckReply):
        return ("ack", reply.op, reply.detail, reply.count)
    assert isinstance(reply, ErrorReply)
    return ("error", reply.error_kind)


async def run_inprocess_serial(scripts, pdp_shards):
    """Fault-free serial reference: the exact served op semantics,
    one op at a time, on a never-started front-end, no pool."""
    reference = AsyncDataServer(make_env(pdp_shards))
    outcomes = []
    for script in scripts:
        outcomes.append([signature(await reference.execute(op)) for op in script])
    return outcomes


class QuickRestartPool(ProcessShardPool):
    """Restarts a retired worker after 10 ms, so every scheduled kill
    finds a live generation within the scripts."""

    RESTART_BACKOFF = 0.01


async def run_served_with_pool(scripts, pool_kwargs, chaos_counters):
    """Drive the scripts concurrently against a server whose PDP work
    runs on a supervised ProcessShardPool under fault injection.
    Returns (per-client signatures, pool health snapshot)."""
    server = make_env(N_SHARDS)
    pool = QuickRestartPool(server.instance.store, **pool_kwargs)
    server.instance.attach_evaluator(pool)
    try:
        async with AsyncDataServer(server) as front:

            async def drive(script):
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, **RETRY_KW
                )
                async with client:
                    replies = [await client.call(op) for op in script]
                    return replies, client.retries_performed

            outcomes = await asyncio.gather(*(drive(s) for s in scripts))
        health = pool.health()
    finally:
        pool.close()
    chaos_counters["worker_restarts"] += health["worker_restarts"]
    chaos_counters["fallback_evaluations"] += health["fallback_evaluations"]
    chaos_counters["client_retries"] += sum(r for _, r in outcomes)
    return [[signature(reply) for reply in replies] for replies, _ in outcomes], health


def assert_streams_equal(served, serial):
    assert served == serial
    flat = [sig for replies in served for sig in replies]
    evaluates = [sig for sig in flat if sig[0] == "evaluate"]
    assert any(sig[1] for sig in evaluates), "no permit ever granted"
    assert any(not sig[1] for sig in evaluates), "no denial ever produced"


#: One kill early and one late per shard.  The tier-1 scripts send every
#: shard at least 30 commands (subject placement spreads the clients'
#: traffic over all four), so both fire and the second kills a
#: respawned worker.
KILL_SCHEDULE = {
    shard_id: [5 + 3 * shard_id, 20 + 3 * shard_id]
    for shard_id in range(N_SHARDS)
}


class TestShardedChaos:
    def test_kills_under_churn_fallback_mode(self, chaos_counters):
        scripts = build_scripts()
        killer = WorkerKiller(KILL_SCHEDULE)

        async def scenario():
            served, health = await run_served_with_pool(
                scripts,
                dict(on_unavailable="fallback", fault_injector=killer),
                chaos_counters,
            )
            serial = await run_inprocess_serial(scripts, N_SHARDS)
            return served, serial, health

        served, serial, health = asyncio.run(
            asyncio.wait_for(scenario(), TIMEOUT)
        )
        assert killer.kills, "the schedule never fired — no chaos happened"
        chaos_counters["worker_kills"] += len(killer.kills)
        assert health["worker_restarts"] >= 1
        assert_streams_equal(served, serial)

    def test_kills_under_churn_error_mode_retries_settle(self, chaos_counters):
        scripts = build_scripts()
        killer = WorkerKiller(KILL_SCHEDULE)

        async def scenario():
            served, health = await run_served_with_pool(
                scripts,
                dict(on_unavailable="error", fault_injector=killer),
                chaos_counters,
            )
            serial = await run_inprocess_serial(scripts, N_SHARDS)
            return served, serial, health

        served, serial, health = asyncio.run(
            asyncio.wait_for(scenario(), TIMEOUT)
        )
        assert killer.kills, "the schedule never fired — no chaos happened"
        chaos_counters["worker_kills"] += len(killer.kills)
        assert health["worker_restarts"] >= 1
        # Retries settled: not a single unavailable error leaked into
        # the decision stream, which equals the fault-free reference.
        flat = [sig for replies in served for sig in replies]
        assert not any(
            sig[0] == "error" and sig[1] == "ShardUnavailableError"
            for sig in flat
        )
        assert_streams_equal(served, serial)

    def test_dropped_mirrors_never_serve_stale_decisions(self, chaos_counters):
        scripts = build_scripts()
        chaos = MirrorChaos(seed=SEED, drop_rate=0.15, max_drops=3)

        async def scenario():
            served, health = await run_served_with_pool(
                scripts,
                dict(on_unavailable="fallback", fault_injector=chaos),
                chaos_counters,
            )
            serial = await run_inprocess_serial(scripts, N_SHARDS)
            return served, serial, health

        served, serial, health = asyncio.run(
            asyncio.wait_for(scenario(), TIMEOUT)
        )
        assert chaos.dropped >= 1, "drop rate never fired — no chaos happened"
        chaos_counters["mirror_drops"] += chaos.dropped
        chaos_counters["worker_kills"] += chaos.dropped
        # A dropped mirror retires its worker before the mutation
        # returns, never leaving a stale decision: equivalence with the
        # fault-free reference is exactly the no-staleness property.
        assert health["worker_restarts"] >= 1
        assert_streams_equal(served, serial)

    def test_delayed_mirrors_only_stretch_latency(self, chaos_counters):
        scripts = build_scripts()
        chaos = MirrorChaos(seed=SEED, delay=0.002)

        async def scenario():
            served, health = await run_served_with_pool(
                scripts,
                dict(on_unavailable="fallback", fault_injector=chaos),
                chaos_counters,
            )
            serial = await run_inprocess_serial(scripts, N_SHARDS)
            return served, serial, health

        served, serial, health = asyncio.run(
            asyncio.wait_for(scenario(), TIMEOUT)
        )
        assert chaos.delayed >= 1
        assert health["worker_restarts"] == 0  # delays are not faults
        assert_streams_equal(served, serial)


class TestUnshardedChaos:
    def test_garbled_frames_are_contained_to_their_slot(self, chaos_counters):
        script = build_scripts()[0]
        garbled = 0

        async def scenario():
            nonlocal garbled
            server = make_env(None)
            async with AsyncDataServer(server) as front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, **RETRY_KW
                )
                async with client:
                    replies = []
                    for index, op in enumerate(script):
                        if index % 7 == 3:
                            # An intact frame with an undecodable
                            # payload, mid-pipeline.
                            _, payload = (
                                encode_message(0, PingOp())[:4],
                                encode_message(0, PingOp())[4:],
                            )
                            client._writer.write(
                                encode_frame(garble_payload(payload))
                            )
                            await client._writer.drain()
                            error = await client._read_reply(-1)
                            assert isinstance(error, ErrorReply)
                            assert error.error_kind == "TransportError"
                            assert not error.retryable
                            garbled += 1
                        replies.append(await client.call(op))
                    return [signature(reply) for reply in replies]

        served = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        serial = asyncio.run(
            asyncio.wait_for(run_inprocess_serial([script], None), TIMEOUT)
        )[0]
        assert garbled >= 1
        chaos_counters["garbled_frames"] += garbled
        assert served == serial

    def test_stalled_reader_preserves_order_and_decisions(self):
        scripts = build_scripts()[:2]

        async def scenario():
            server = make_env(None)
            async with AsyncDataServer(
                server, write_high_water=2048, sndbuf=4096
            ) as front:

                async def drive(script):
                    client = await AsyncClient.connect(
                        "127.0.0.1", front.port, rcvbuf=4096
                    )
                    async with client:
                        replies = []
                        for start in range(0, len(script), 15):
                            replies.extend(
                                await stalled_pipeline(
                                    client, script[start:start + 15], stall=0.2
                                )
                            )
                        return [signature(reply) for reply in replies]

                return await asyncio.gather(*(drive(s) for s in scripts))

        served = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        serial = asyncio.run(
            asyncio.wait_for(run_inprocess_serial(scripts, None), TIMEOUT)
        )
        assert served == serial


class TestStatsUnderChaos:
    def test_stats_reports_a_killed_worker_through_its_restart(self, chaos_counters, monkeypatch):
        """A ``stats`` op asked while a pool worker is killed and
        restarted is answered every time, and its per-shard status walks
        the transition (``up`` → down / restarting → ``up``) while the
        restart count rises."""
        server = make_env(2)
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.3)
        pool = ProcessShardPool(server.instance.store)
        server.instance.attach_evaluator(pool)

        async def scenario():
            async with AsyncDataServer(server) as front:
                async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                    first = (await client.call(StatsOp())).values
                    pool.kill_worker(0)
                    seen = []
                    while True:
                        reply = await client.call(StatsOp())
                        assert isinstance(reply, StatsReply)
                        seen.append(reply.values["pdp.health.shards.0.status"])
                        if reply.values["pdp.health.shards.0.restarts"] and seen[-1] == "up":
                            return first, seen, reply.values
                        await asyncio.sleep(0.02)

        try:
            first, seen, last = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        finally:
            pool.close()
        assert first["pdp.health.statuses"] == ["up", "up"]
        assert first["pdp.health.shards.0.restarts"] == 0
        assert set(seen[:-1]) & {"down", "restarting"}, seen
        assert last["pdp.health.worker_restarts"] >= 1
        assert last["pdp.health.statuses"] == ["up", "up"]
        chaos_counters["worker_kills"] += 1
        chaos_counters["worker_restarts"] += last["pdp.health.worker_restarts"]

    def test_a_blocking_evaluator_never_blocks_the_loop_on_stats(self):
        """The evaluator's view runs in the executor, as ``evaluate``
        does: while its ``cache_stats`` waits, another connection's ping
        is answered."""
        released = threading.Event()
        server = make_env(None)
        inline = server.instance.pdp

        class BlockingEvaluator:
            blocking = True
            store = inline.store
            evaluate = inline.evaluate

            def cache_stats(self):
                released.wait(5.0)
                return inline.cache_stats()

            def detach(self):
                inline.detach()

        server.instance.attach_evaluator(BlockingEvaluator())

        async def scenario():
            async with AsyncDataServer(server) as front:
                async with await AsyncClient.connect("127.0.0.1", front.port) as first, \
                        await AsyncClient.connect("127.0.0.1", front.port) as second:
                    stats = asyncio.ensure_future(first.call(StatsOp()))
                    await asyncio.sleep(0.05)
                    assert await second.ping() == AckReply("ping")
                    answered_first = stats.done()
                    released.set()
                    return answered_first, await stats

        answered_first, reply = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        assert not answered_first
        assert reply.values["pdp.cache.entries"] == 0


def test_seeded_scripts_are_reproducible():
    assert build_scripts() == build_scripts()
