"""Chaos differential suite: decisions under injected faults must
equal fault-free serial replay once retries settle.

This is PR 4's differential-equivalence discipline extended *through*
crashes.  N clients run seeded mixed op scripts (disjoint namespaces,
as in ``tests/serving/test_served_equivalence.py``) while the fault
harness kills shard workers mid-traffic, drops invalidation mirrors,
garbles wire frames and stalls readers.  The stream each client
observes — after its retries — must be identical to the same scripts
replayed serially against a fault-free deployment.

Two planes:

- *the worker pool*, driven directly, as the batch evaluator it is:
  each client's script runs on its own driver thread over one 4-shard
  :class:`ProcessShardPool`; loads, updates and revokes go to the
  :class:`ShardedPolicyStore`, each run of evaluates is one
  ``evaluate_many`` call, retried on a retryable
  :class:`ShardUnavailableError`.  The (decision, policy id) stream
  must equal one serial :class:`PolicyDecisionPoint` replay:

  - worker kills under mutation churn, ``"fallback"`` mode — crashes
    invisible, decisions identical (the fallback reads the same
    authoritative store);
  - worker kills under mutation churn, ``"error"`` mode — drivers see
    retryable errors and settle to identical decisions by retrying;
  - dropped invalidation mirrors — the shard is retired before the
    mutation returns and rebuilt under supervision, so no worker ever
    serves from a silently-stale replica;
  - delayed mirrors — latency only;

- *the wire*, over a real :class:`AsyncDataServer`: garbled frames and
  stalled readers are contained to an in-order error reply / a
  backpressure stall, never corrupting neighbouring replies.

Seeding: fixed by default (CI chaos-smoke is reproducible); the
nightly deep pass sets ``CHAOS_DEEP=1`` for longer scripts at an
unpinned seed, printed as ``CHAOS_SEED=...`` for replay via the
``CHAOS_SEED`` env var.
"""

import asyncio
import os
import random
import threading
import time

from repro.core import stream_policy
from repro.errors import PolicyStoreError, ShardUnavailableError
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
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool, ShardedPolicyStore
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import (
    parse_policy_xml,
    parse_request_xml,
    policy_to_xml,
    request_to_xml,
)

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

#: Seconds a pool driver waits before each step: the round trip a
#: client pays per op, without which a script outruns a 10 ms restart
#: and the second scheduled kill of a shard never comes.
PACE = 0.005

#: Retry policy, of the wire clients and the pool's driver threads,
#: generous enough to outlast any supervised restart (backoff 0.01 s,
#: doubling, cap 2 s ⇒ recovery in tens of milliseconds; ten retries
#: span seconds).
RETRY_KW = dict(max_retries=10, retry_base_delay=0.02, retry_max_delay=0.25)


def client_stream(client_id):
    return f"weather_c{client_id}"


def weather_graph(threshold, stream):
    return QueryGraph(stream).append(FilterOperator(f"rainrate > {threshold}"))


def make_env():
    engine = StreamEngine()
    for client_id in range(N_CLIENTS):
        engine.register_input_stream(client_stream(client_id), WEATHER_SCHEMA)
    return DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
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


async def run_inprocess_serial(scripts):
    """Fault-free serial reference: the exact served op semantics,
    one op at a time, on a never-started front-end."""
    reference = AsyncDataServer(make_env())
    outcomes = []
    for script in scripts:
        outcomes.append([signature(await reference.execute(op)) for op in script])
    return outcomes


class QuickRestartPool(ProcessShardPool):
    """Restarts a retired worker after 10 ms, so every scheduled kill
    finds a live generation within the scripts."""

    RESTART_BACKOFF = 0.01


def pool_steps(script):
    """A script as the pool sees it: ``("evaluate", [request])`` for
    each evaluate, decide-only or grant, and ``(store method,
    argument)`` for each mutation.  An ingest has no PDP side and is
    left out."""
    steps = []
    for op in script:
        if isinstance(op, EvaluateOp):
            steps.append(("evaluate", [parse_request_xml(op.request_xml)]))
        elif isinstance(op, (LoadOp, UpdateOp)):
            method = "load" if isinstance(op, LoadOp) else "update"
            steps.append((method, parse_policy_xml(op.policy_xml)))
        elif isinstance(op, RevokeOp):
            steps.append(("remove", op.policy_id))
    return steps


def replay(steps, store, evaluate_many):
    """Run *steps*: mutations on *store*, requests through
    *evaluate_many*.  Returns one signature per mutation and per
    request (no handle URIs, nothing an ingest does)."""
    outcomes = []
    for method, argument in steps:
        if method == "evaluate":
            try:
                responses = evaluate_many(argument)
            except ShardUnavailableError as error:
                outcomes += [("error", method, type(error).__name__)] * len(argument)
            else:
                outcomes += [("evaluate", response.decision.value, response.policy_id)
                             for response in responses]
            continue
        try:
            getattr(store, method)(argument)
        except PolicyStoreError as error:
            outcomes.append(("error", method, type(error).__name__))
        else:
            outcomes.append(("ack", method))
    return outcomes


def replay_serial(scripts):
    """Fault-free serial reference: every script in turn against one
    :class:`PolicyStore` and its :class:`PolicyDecisionPoint`."""
    store = PolicyStore()
    pdp = PolicyDecisionPoint(store)
    return [
        replay(pool_steps(script), store, lambda batch: [pdp.evaluate(r) for r in batch])
        for script in scripts
    ]


def retrying(pool, retries):
    """``pool.evaluate_many`` retried, with doubling backoff, on a
    retryable :class:`ShardUnavailableError`; each retry is appended
    to *retries*."""
    def evaluate_many(requests):
        delay = RETRY_KW["retry_base_delay"]
        for _ in range(RETRY_KW["max_retries"]):
            try:
                return pool.evaluate_many(requests)
            except ShardUnavailableError as error:
                if not error.retryable:
                    raise
            retries.append(delay)
            time.sleep(delay)
            delay = min(2 * delay, RETRY_KW["retry_max_delay"])
        return pool.evaluate_many(requests)

    return evaluate_many


def paced(steps):
    for step in steps:
        time.sleep(PACE)
        yield step


def run_pool_drivers(scripts, pool_kwargs, chaos_counters):
    """Run each script from its own driver thread against a supervised
    4-shard pool under fault injection.  Returns (per-client
    signatures, pool health snapshot)."""
    store = ShardedPolicyStore(N_SHARDS)
    steps = [pool_steps(script) for script in scripts]
    outcomes = [None] * len(scripts)
    failures, retries = [], []
    with QuickRestartPool(store, **pool_kwargs) as pool:
        evaluate_many = retrying(pool, retries)

        def drive(index):
            try:
                outcomes[index] = replay(paced(steps[index]), store, evaluate_many)
            except Exception as error:
                failures.append(error)

        drivers = [threading.Thread(target=drive, args=(index,))
                   for index in range(len(scripts))]
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(TIMEOUT)
        assert not any(driver.is_alive() for driver in drivers), "a driver hung"
        health = pool.health()
    if failures:
        raise failures[0]
    chaos_counters["worker_restarts"] += health["worker_restarts"]
    chaos_counters["fallback_evaluations"] += health["fallback_evaluations"]
    chaos_counters["client_retries"] += len(retries)
    return outcomes, health


def assert_streams_equal(driven, serial):
    assert driven == serial
    evaluates = [sig for outcomes in driven for sig in outcomes if sig[0] == "evaluate"]
    assert any(sig[1] == "Permit" for sig in evaluates), "no permit ever granted"
    assert any(sig[1] != "Permit" for sig in evaluates), "no denial ever produced"


#: One kill early and one late per shard.  The tier-1 scripts send every
#: shard at least 30 commands (one per evaluate and per mirrored
#: mutation; subject placement spreads the clients' traffic over all
#: four), so both fire and the second kills a respawned worker.
KILL_SCHEDULE = {
    shard_id: [5 + 3 * shard_id, 20 + 3 * shard_id]
    for shard_id in range(N_SHARDS)
}


def assert_every_shard_killed_twice(killer, chaos_counters):
    assert sorted(shard_id for shard_id, _, _ in killer.kills) == sorted(
        list(KILL_SCHEDULE) * 2
    ), killer.kills
    chaos_counters["worker_kills"] += len(killer.kills)


class TestShardedChaos:
    def test_kills_under_churn_fallback_mode(self, chaos_counters):
        scripts = build_scripts()
        killer = WorkerKiller(KILL_SCHEDULE)
        driven, health = run_pool_drivers(
            scripts, dict(on_unavailable="fallback", fault_injector=killer), chaos_counters
        )
        assert_every_shard_killed_twice(killer, chaos_counters)
        assert health["worker_restarts"] >= 1
        assert_streams_equal(driven, replay_serial(scripts))

    def test_kills_under_churn_error_mode_retries_settle(self, chaos_counters):
        scripts = build_scripts()
        killer = WorkerKiller(KILL_SCHEDULE)
        driven, health = run_pool_drivers(
            scripts, dict(on_unavailable="error", fault_injector=killer), chaos_counters
        )
        assert_every_shard_killed_twice(killer, chaos_counters)
        assert health["worker_restarts"] >= 1
        # Retries settled: not a single unavailable error leaked into
        # the decision stream, which equals the fault-free reference.
        assert not any(sig[0] == "error" and sig[2] == "ShardUnavailableError"
                       for outcomes in driven for sig in outcomes)
        assert_streams_equal(driven, replay_serial(scripts))

    def test_dropped_mirrors_never_serve_stale_decisions(self, chaos_counters):
        scripts = build_scripts()
        chaos = MirrorChaos(seed=SEED, drop_rate=0.15, max_drops=3)
        driven, health = run_pool_drivers(
            scripts, dict(on_unavailable="fallback", fault_injector=chaos), chaos_counters
        )
        assert chaos.dropped >= 1, "drop rate never fired — no chaos happened"
        chaos_counters["mirror_drops"] += chaos.dropped
        chaos_counters["worker_kills"] += chaos.dropped
        # A dropped mirror retires its worker before the mutation
        # returns, never leaving a stale decision: equivalence with the
        # fault-free reference is exactly the no-staleness property.
        assert health["worker_restarts"] >= 1
        assert_streams_equal(driven, replay_serial(scripts))

    def test_delayed_mirrors_only_stretch_latency(self, chaos_counters):
        scripts = build_scripts()
        chaos = MirrorChaos(seed=SEED, delay=0.002)
        driven, health = run_pool_drivers(
            scripts, dict(on_unavailable="fallback", fault_injector=chaos), chaos_counters
        )
        assert chaos.delayed >= 1
        assert health["worker_restarts"] == 0  # delays are not faults
        assert_streams_equal(driven, replay_serial(scripts))


class TestUnshardedChaos:
    def test_garbled_frames_are_contained_to_their_slot(self, chaos_counters):
        script = build_scripts()[0]
        garbled = 0

        async def scenario():
            nonlocal garbled
            server = make_env()
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
            asyncio.wait_for(run_inprocess_serial([script]), TIMEOUT)
        )[0]
        assert garbled >= 1
        chaos_counters["garbled_frames"] += garbled
        assert served == serial

    def test_stalled_reader_preserves_order_and_decisions(self):
        scripts = build_scripts()[:2]

        async def scenario():
            server = make_env()
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
            asyncio.wait_for(run_inprocess_serial(scripts), TIMEOUT)
        )
        assert served == serial


def test_seeded_scripts_are_reproducible():
    assert build_scripts() == build_scripts()
