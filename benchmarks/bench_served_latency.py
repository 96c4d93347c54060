"""Served-latency benchmark — the asyncio front-end under load.

One real :class:`AsyncDataServer` (loopback TCP, ephemeral port) is
driven by 8 concurrent pipelined connections through a seeded mixed
workload — decide-only evaluates, stream ingests, and policy
load/update/revoke churn — ≥10k requests total.  The server-side
:class:`LatencyRecorder` yields p50/p90/p99 per op type (the
dbworkload-style run table), and a second phase measures what
pipelining buys: the same evaluate stream one-request-per-round-trip
versus pipelined in chunks, on the same connections.

Everything lands in ``BENCH_served_latency.json`` (folded into
``BENCH_trajectory.json`` by the aggregator; the pipelining speedup is
the headline).  A decision-equivalence sample against the in-process
PDP runs before anything is timed.

A third phase (PR 7) measures supervised recovery: the same front-end
over a 4-shard ``ProcessShardPool`` in ``on_unavailable="error"`` mode,
with one worker SIGKILLed mid-run while retrying clients keep driving.
Reported: recovery time (kill → first successful reply routed to the
killed shard) and the p99 impact on client-observed evaluate latency
(post-kill window vs pre-kill baseline).
"""

import asyncio
import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_header
from repro.core import stream_policy
from repro.loadgen.mix import derive_seed
from repro.framework.server import DataServer
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.wire import (
    EvaluateOp,
    EvaluateReply,
    IngestOp,
    LoadOp,
    RevokeOp,
    UpdateOp,
)
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool
from repro.xacml.xml_io import parse_request_xml, policy_to_xml, request_to_xml

N_CONNECTIONS = 8
OPS_PER_CONNECTION = 1_300          # 8 × 1300 = 10 400 ≥ 10k requests
PIPELINE_CHUNK = 64
N_STREAMS = 8
SUBJECTS_PER_STREAM = 12
INGEST_BATCH = 5
N_PIPELINE_PROBE = 250              # per connection, each phase
N_RECOVERY_SHARDS = 4
N_RECOVERY_CONNECTIONS = 4
RECOVERY_OPS = 400                  # per connection
RECOVERY_WARMUP = 300               # completed ops before the kill
SEED = 4_1_2012
# Distinct seed domains per workload phase; integer tags because
# derive_seed mixes arithmetic parts (string hash() is salted per
# process and would break cross-run reproducibility).
SCRIPT_DOMAIN = 1
PROBE_DOMAIN = 2
RECOVERY_DOMAIN = 3

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_served_latency.json"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def stream_name(index: int) -> str:
    return f"weather_b{index % N_STREAMS}"


def make_graph(stream: str, threshold: int = 5) -> QueryGraph:
    return QueryGraph(stream).append(FilterOperator(f"rainrate > {threshold}"))


def make_server(pdp_shards=None) -> DataServer:
    engine = StreamEngine()
    for index in range(N_STREAMS):
        engine.register_input_stream(stream_name(index), WEATHER_SCHEMA)
    server = DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
        pdp_shards=pdp_shards,
    )
    for index in range(N_STREAMS):
        for j in range(SUBJECTS_PER_STREAM):
            server.load_policy(
                stream_policy(
                    f"p:{index}:{j}",
                    stream_name(index),
                    make_graph(stream_name(index)),
                    subject=f"user{index}:{j}",
                )
            )
    return server


def evaluate_op(rng: random.Random) -> EvaluateOp:
    index = rng.randrange(N_STREAMS)
    # 1-in-5 requests come from a subject no policy permits.
    if rng.random() < 0.2:
        subject = f"stranger{rng.randrange(1000)}"
    else:
        subject = f"user{index}:{rng.randrange(SUBJECTS_PER_STREAM)}"
    return EvaluateOp(
        request_to_xml(Request.simple(subject, stream_name(index))),
        None,
        True,  # decide-only: pure PDP latency, no engine registration
    )


def ingest_op(rng: random.Random) -> IngestOp:
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
        for i in range(INGEST_BATCH)
    ]
    return IngestOp(stream_name(rng.randrange(N_STREAMS)), records)


def build_script(connection_id: int, length: int = OPS_PER_CONNECTION):
    """Seeded mixed script: ~77% evaluate, ~8% ingest, ~15% churn."""
    rng = random.Random(derive_seed(SEED, SCRIPT_DOMAIN, connection_id))
    churn_stream = stream_name(connection_id)
    ops = []
    churn_sequence = 0
    live = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.77:
            ops.append(evaluate_op(rng))
        elif roll < 0.85:
            ops.append(ingest_op(rng))
        else:
            kind = rng.choice(["load", "update", "revoke"])
            if kind == "load" or not live:
                pid = f"churn:{connection_id}:{churn_sequence}"
                churn_sequence += 1
                live.append(pid)
                ops.append(
                    LoadOp(
                        policy_to_xml(
                            stream_policy(
                                pid,
                                churn_stream,
                                make_graph(churn_stream, rng.randint(1, 9)),
                                subject=f"churn-user:{connection_id}",
                            )
                        )
                    )
                )
            elif kind == "update":
                ops.append(
                    UpdateOp(
                        policy_to_xml(
                            stream_policy(
                                rng.choice(live),
                                churn_stream,
                                make_graph(churn_stream, rng.randint(1, 9)),
                                subject=f"churn-user:{connection_id}",
                            )
                        )
                    )
                )
            else:
                ops.append(RevokeOp(live.pop(rng.randrange(len(live)))))
    return ops


async def assert_served_equivalence(front: AsyncDataServer, server: DataServer):
    """Decide-only served replies ≡ the in-process PDP, on a sample."""
    rng = random.Random(99)
    ops = [evaluate_op(rng) for _ in range(200)]
    async with await AsyncClient.connect("127.0.0.1", front.port) as client:
        replies = await client.pipeline(ops)
    for op, reply in zip(ops, replies):
        expected = server.instance.pdp.evaluate(parse_request_xml(op.request_xml))
        assert reply.decision == expected.decision.value
        assert reply.policy_id == expected.policy_id


async def drive_mixed(front: AsyncDataServer, scripts):
    async def drive(script):
        async with await AsyncClient.connect("127.0.0.1", front.port) as client:
            for start in range(0, len(script), PIPELINE_CHUNK):
                await client.pipeline(script[start:start + PIPELINE_CHUNK])

    started = time.perf_counter()
    await asyncio.gather(*(drive(script) for script in scripts))
    return time.perf_counter() - started


async def drive_evaluates(front: AsyncDataServer, pipelined: bool):
    """The same evaluate stream, serial round-trips vs pipelined."""
    scripts = [
        [
            evaluate_op(random.Random(derive_seed(SEED, PROBE_DOMAIN, cid, int(pipelined))))
            for _ in range(N_PIPELINE_PROBE)
        ]
        for cid in range(N_CONNECTIONS)
    ]

    async def drive(script):
        async with await AsyncClient.connect("127.0.0.1", front.port) as client:
            if pipelined:
                for start in range(0, len(script), PIPELINE_CHUNK):
                    await client.pipeline(script[start:start + PIPELINE_CHUNK])
            else:
                for op in script:
                    await client.call(op)

    started = time.perf_counter()
    await asyncio.gather(*(drive(script) for script in scripts))
    return time.perf_counter() - started


def p99_ms(samples):
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))] * 1000.0


async def run_recovery_benchmark():
    """Kill one shard worker mid-run; measure recovery and p99 impact.

    ``on_unavailable="error"`` is deliberate: fallback mode would hide
    the outage entirely, so nothing could be measured.  The retrying
    clients see retryable errors until the supervisor's rebuild
    readmits the worker — recovery time is the kill-to-first-success
    gap on a request pinned to the killed shard.
    """
    server = make_server(pdp_shards=N_RECOVERY_SHARDS)
    store = server.instance.store
    target_request = Request.simple("user0:0", stream_name(0))
    (target_shard,) = store.shards_for_request(target_request)
    target_op = EvaluateOp(request_to_xml(target_request), None, True)

    latencies = {"pre": [], "post": []}
    marks = {"killed_at": None, "recovered_at": None}
    progress = {"completed": 0}
    retry_kw = dict(max_retries=200, retry_base_delay=0.01, retry_max_delay=0.1)

    with ProcessShardPool(
        store, on_unavailable="error", restart_backoff=0.05
    ) as pool:
        server.instance.attach_evaluator(pool)
        async with AsyncDataServer(server, max_in_flight=512) as front:
            loop = asyncio.get_running_loop()

            async def driver(connection_id):
                rng = random.Random(derive_seed(SEED, RECOVERY_DOMAIN, connection_id))
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, **retry_kw
                )
                async with client:
                    for _ in range(RECOVERY_OPS):
                        op = evaluate_op(rng)
                        started = loop.time()
                        reply = await client.call(op)
                        elapsed = loop.time() - started
                        assert isinstance(reply, EvaluateReply), reply
                        window = "post" if marks["killed_at"] else "pre"
                        latencies[window].append(elapsed)
                        progress["completed"] += 1
                    return client.retries_performed

            async def assassin():
                while progress["completed"] < RECOVERY_WARMUP:
                    await asyncio.sleep(0.005)
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, **retry_kw
                )
                async with client:
                    marks["killed_at"] = loop.time()
                    pool.kill_worker(target_shard, reason="bench: mid-run kill")
                    # One logical call whose retry loop rides through
                    # detection, backoff, respawn and replay: its
                    # completion IS the first post-kill success on the
                    # killed shard.
                    reply = await client.call(target_op)
                    assert isinstance(reply, EvaluateReply) and reply.ok, reply
                    marks["recovered_at"] = loop.time()
                    return client.retries_performed

            outcomes = await asyncio.gather(
                assassin(),
                *(driver(cid) for cid in range(N_RECOVERY_CONNECTIONS)),
            )
        health = pool.health()

    return {
        "model": "measured",
        "shards": N_RECOVERY_SHARDS,
        "connections": N_RECOVERY_CONNECTIONS,
        "requests": progress["completed"],
        "killed_shard": target_shard,
        "recovery_seconds": marks["recovered_at"] - marks["killed_at"],
        "p99_ms_pre_kill": p99_ms(latencies["pre"]),
        "p99_ms_post_kill": p99_ms(latencies["post"]),
        "p99_impact": p99_ms(latencies["post"]) / p99_ms(latencies["pre"]),
        "client_retries": sum(outcomes),
        "worker_restarts": health["worker_restarts"],
        "degraded_shards": health["degraded_shards"],
    }


async def run_served_benchmark():
    server = make_server()
    scripts = [build_script(cid) for cid in range(N_CONNECTIONS)]
    total_ops = sum(len(script) for script in scripts)
    async with AsyncDataServer(server, max_in_flight=512) as front:
        await assert_served_equivalence(front, server)
        front.stats = type(front.stats)()  # timing starts clean
        parse_request_xml.cache_clear()     # and so do the memo's counters
        mixed_seconds = await drive_mixed(front, scripts)
        latency = front.stats.to_dict()
        table = front.stats.table()
        serial_seconds = await drive_evaluates(front, pipelined=False)
        pipelined_seconds = await drive_evaluates(front, pipelined=True)
    memo = parse_request_xml.cache_info()
    probe_ops = N_CONNECTIONS * N_PIPELINE_PROBE
    return {
        "workload": {
            "connections": N_CONNECTIONS,
            "requests": total_ops,
            "pipeline_chunk": PIPELINE_CHUNK,
            "streams": N_STREAMS,
            "policies": N_STREAMS * SUBJECTS_PER_STREAM,
            "cpus": cpu_count(),
        },
        "mixed": {
            "model": "measured",
            "seconds": mixed_seconds,
            "throughput_rps": total_ops / mixed_seconds,
            "read_pauses": front.read_pauses,
        },
        "latency_ms": latency,
        "table": table,
        # The served win rests on requests repeating: the hit rate of
        # the request-parse memo over the mixed + probe phases.
        "request_parse_memo": {
            "hits": memo.hits,
            "misses": memo.misses,
            "currsize": memo.currsize,
        },
        "pipelining": {
            "model": "measured",
            "probe_requests": probe_ops,
            "serial_seconds": serial_seconds,
            "pipelined_seconds": pipelined_seconds,
            "serial_rps": probe_ops / serial_seconds,
            "pipelined_rps": probe_ops / pipelined_seconds,
            "speedup_vs_serial": serial_seconds / pipelined_seconds,
        },
    }


def test_served_latency_percentiles(benchmark):
    relaxed = bool(os.environ.get("BENCH_SMOKE_RELAXED"))

    def sweep():
        results = asyncio.run(run_served_benchmark())
        results["recovery"] = asyncio.run(run_recovery_benchmark())
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    workload = results["workload"]
    print_header(
        f"Served latency — {workload['requests']} requests over "
        f"{workload['connections']} pipelined connections, "
        f"{workload['cpus']} cpu(s)"
    )
    print(results["table"])
    mixed = results["mixed"]
    print(
        f"  mixed workload  : {mixed['throughput_rps']:>10.0f} req/s "
        f"({mixed['read_pauses']} read pauses)"
    )
    memo = results["request_parse_memo"]
    print(
        f"  request memo    : {memo['hits']} hits, {memo['misses']} misses, "
        f"{memo['currsize']} documents held"
    )
    pipelining = results["pipelining"]
    print(
        f"  serial          : {pipelining['serial_rps']:>10.0f} req/s\n"
        f"  pipelined       : {pipelining['pipelined_rps']:>10.0f} req/s "
        f"({pipelining['speedup_vs_serial']:.1f}x vs serial)"
    )
    recovery = results["recovery"]
    print(
        f"  worker kill     : shard {recovery['killed_shard']} of "
        f"{recovery['shards']}, recovered in "
        f"{recovery['recovery_seconds'] * 1000:.0f} ms "
        f"({recovery['worker_restarts']} restart(s), "
        f"{recovery['client_retries']} client retries)\n"
        f"  evaluate p99    : {recovery['p99_ms_pre_kill']:.2f} ms pre-kill, "
        f"{recovery['p99_ms_post_kill']:.2f} ms post-kill "
        f"({recovery['p99_impact']:.1f}x)"
    )
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    # Acceptance: the ISSUE's floor — ≥10k requests over ≥8 connections
    # with per-op percentiles — plus sane percentile ordering and a
    # pipelining win (relaxed on shared CI runners).
    assert workload["requests"] >= 10_000
    assert workload["connections"] >= 8
    latency = results["latency_ms"]
    for op in ("EvaluateOp", "IngestOp", "LoadOp", "UpdateOp", "RevokeOp"):
        assert op in latency, f"no latency recorded for {op}"
        stats = latency[op]
        assert stats["count"] > 0
        assert stats["p50_ms"] <= stats["p90_ms"] <= stats["p99_ms"] <= stats["max_ms"]
    floor = 1.0 if relaxed else 1.2
    assert pipelining["speedup_vs_serial"] >= floor
    # Recovery gates: the kill really happened and really healed —
    # without pool reconstruction and without exhausting the budget —
    # and recovery stayed within the supervision design envelope
    # (detection ≤ 0.1 s + backoff + respawn/replay; generous headroom
    # on shared runners).  The p99 numbers are reported, not gated:
    # client-observed latency through a retry loop is too noisy to
    # gate on a shared runner.
    assert recovery["worker_restarts"] >= 1
    assert recovery["degraded_shards"] == []
    assert recovery["client_retries"] >= 1
    assert recovery["recovery_seconds"] < (30.0 if relaxed else 10.0)
