"""Differential suite: served-concurrent ≡ in-process-serial decisions.

N async clients fire seeded mixed evaluate/load/update/revoke/ingest
scripts at one :class:`AsyncDataServer` concurrently (pipelined, over
real sockets); the same scripts replayed serially against an identical
in-process deployment must produce identical decision streams.

Equivalence holds because each client works a disjoint namespace
(its own stream, subjects and policy ids), which makes cross-client
interleavings commutative, while per-connection pipelining preserves
each client's own order — exactly the guarantee the server documents.
Handle URIs are excluded from the comparison (the engine's global
query counter interleaves nondeterministically); everything the PDP
and PEP decide — ok, decision, deciding policy, error kind, ingest
count — must match exactly, under continuous mutation churn.

Ingest-heavy clients own two or three streams each, with windowed
queries registered on them up front: a connection's backlogged ingests
reach each stream's plan in one dispatch (``docs/serving.md``, *Runs
and the backlog*), and every query's output rows and every input's
``total_appended`` must equal the serial replay's.
"""

import asyncio
import random

import pytest

from repro.core import stream_policy
from repro.loadgen.mix import derive_seed
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.wire import (
    AckReply,
    PingOp,
    ErrorReply,
    EvaluateOp,
    EvaluateReply,
    IngestOp,
    LoadOp,
    RevokeOp,
    UpdateOp,
)
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    WindowSpec,
    WindowType,
)
from serving_helpers import TIMEOUT, make_data_server, weather_graph

N_CLIENTS = 4
SCRIPT_LENGTH = 60
PIPELINE_CHUNK = 7
SEED = 20120917  # the paper's conference year/month, stable across runs


def client_stream(client_id: int) -> str:
    return f"weather_c{client_id}"


def build_script(client_id: int, rng: random.Random, length: int = SCRIPT_LENGTH):
    """One client's seeded op sequence, confined to its namespace."""
    stream = client_stream(client_id)
    subjects = [f"c{client_id}:s{j}" for j in range(4)]
    live = []
    next_policy = 0
    ops = []

    def policy_for(pid: str, subject: str, threshold: int):
        return stream_policy(
            pid, stream, weather_graph(threshold, stream=stream), subject=subject
        )

    def load_op():
        nonlocal next_policy
        pid = f"c{client_id}:p{next_policy}"
        next_policy += 1
        live.append(pid)
        return LoadOp(
            policy_to_xml(policy_for(pid, rng.choice(subjects), rng.randint(1, 9)))
        )

    # Two policies up front so early evaluates can permit.
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
            # Mostly live policies; sometimes a dead/unknown id (the
            # resulting error must be identical on both paths too).
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


def build_scripts(seed: int = SEED):
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


def make_env(pdp_shards):
    return make_data_server(
        subjects=(),
        streams=tuple(client_stream(i) for i in range(N_CLIENTS)),
        pdp_shards=pdp_shards,
    )


async def run_served_concurrent(scripts, pdp_shards):
    server = make_env(pdp_shards)
    async with AsyncDataServer(server) as front:
        async def drive(script):
            async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                replies = []
                for start in range(0, len(script), PIPELINE_CHUNK):
                    replies.extend(
                        await client.pipeline(script[start:start + PIPELINE_CHUNK])
                    )
                return replies
        outcomes = await asyncio.gather(*(drive(script) for script in scripts))
        assert front.connections_total == len(scripts)
    return [[signature(reply) for reply in replies] for replies in outcomes]


async def run_inprocess_serial(scripts, pdp_shards):
    server = make_env(pdp_shards)
    # A never-started front-end: using its execute() directly replays
    # the exact served op semantics in-process, one op at a time.
    reference = AsyncDataServer(server)
    outcomes = []
    for script in scripts:
        outcomes.append([signature(await reference.execute(op)) for op in script])
    return outcomes


@pytest.mark.parametrize("pdp_shards", [None, 4])
def test_served_concurrent_equals_inprocess_serial(pdp_shards):
    scripts = build_scripts()
    # The scripts really do churn: every mutating op kind is present.
    kinds = {type(op).__name__ for script in scripts for op in script}
    assert kinds == {"EvaluateOp", "LoadOp", "UpdateOp", "RevokeOp", "IngestOp"}

    async def scenario():
        served = await run_served_concurrent(scripts, pdp_shards)
        serial = await run_inprocess_serial(scripts, pdp_shards)
        return served, serial

    served, serial = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT * 4))
    assert served == serial
    # The comparison is meaningful: permits, denials and errors all occur.
    flat = [sig for replies in served for sig in replies]
    evaluates = [sig for sig in flat if sig[0] == "evaluate"]
    assert any(sig[1] for sig in evaluates), "no permit ever granted"
    assert any(not sig[1] for sig in evaluates), "no denial ever produced"
    assert any(sig[0] == "error" for sig in flat), "no ghost-mutation errors"


def test_seeded_scripts_are_reproducible():
    first, second = build_scripts(), build_scripts()
    assert first == second


# -- ingest-heavy clients: runs of ingests over several streams ------------------------

INGEST_CLIENTS = 3
INGEST_SCRIPT_LENGTH = 90
INGEST_CHUNK_OPS = 12


def owned_streams(client_id: int):
    return [f"w{client_id}_s{j}" for j in range(2 + client_id % 2)]


def standing_queries(stream: str):
    """Order- and batch-sensitive queries: a filter, a sliding tuple
    window and a time window."""
    return [
        QueryGraph(stream).append(FilterOperator("rainrate > 4")),
        QueryGraph(stream).append(AggregateOperator(WindowSpec(WindowType.TUPLE, 4, 1), [
            AggregationSpec.parse(text) for text in ("temperature:avg", "winddirection:sum",
                                                     "samplingtime:lastval")])),
        QueryGraph(stream).append(AggregateOperator(WindowSpec(WindowType.TIME, 5, 2), [
            AggregationSpec.parse(text) for text in ("rainrate:max", "humidity:count")])),
    ]


def build_ingest_script(client_id: int, rng: random.Random):
    """Mostly ingests round the client's streams; now and then a
    mistyped record (refused alone), a key in another case (the
    per-record path) or a ping between ingests."""
    streams = owned_streams(client_id)
    clock = {stream: 0 for stream in streams}
    ops = []
    for _ in range(INGEST_SCRIPT_LENGTH):
        if rng.random() < 0.08:
            ops.append(PingOp())
            continue
        stream = rng.choice(streams)
        records = []
        for _ in range(rng.randint(0, 6)):
            clock[stream] += rng.choice((0, 1, 2))
            records.append({
                "samplingtime": clock[stream] + rng.choice((0.0, 0.5)),
                "temperature": rng.uniform(20, 35),
                "humidity": rng.uniform(40, 95),
                "solarradiation": rng.uniform(0, 800),
                "rainrate": rng.uniform(0, 12),
                "windspeed": rng.uniform(0, 20),
                "winddirection": rng.randrange(360),
                "barometer": rng.uniform(980, 1040),
            })
        roll = rng.random()
        if records and roll < 0.08:
            records[-1]["samplingtime"] = "yesterday"
        elif records and roll < 0.16:
            records[0]["RainRate"] = records[0].pop("rainrate")
        ops.append(IngestOp(stream, records))
    return ops


def make_ingest_env():
    streams = [stream for c in range(INGEST_CLIENTS) for stream in owned_streams(c)]
    server = make_data_server(subjects=(), streams=tuple(streams))
    engine = server.instance.engine
    handles = [engine.register_query(graph) for s in streams for graph in standing_queries(s)]
    return server, handles


def observed(server, handles):
    engine = server.instance.engine
    return (
        [[t.values for t in engine.read(handle)] for handle in handles],
        {name: engine.catalog.get(name).total_appended for name in engine.catalog.names()},
    )


def test_ingest_heavy_clients_equal_the_serial_replay():
    scripts = [
        build_ingest_script(c, random.Random(derive_seed(SEED, 100 + c)))
        for c in range(INGEST_CLIENTS)
    ]

    async def served():
        server, handles = make_ingest_env()
        async with AsyncDataServer(server) as front:
            async def drive(script):
                async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                    replies = []
                    for start in range(0, len(script), INGEST_CHUNK_OPS):
                        replies.extend(await client.pipeline(
                            script[start:start + INGEST_CHUNK_OPS]))
                    return [signature(reply) for reply in replies]
            replies = await asyncio.gather(*(drive(script) for script in scripts))
        return replies, observed(server, handles), (front.ingest_runs, front.ingest_run_ops)

    async def serial():
        server, handles = make_ingest_env()
        reference = AsyncDataServer(server)
        replies = [[signature(await reference.execute(op)) for op in script]
                   for script in scripts]
        return replies, observed(server, handles), (reference.ingest_runs,
                                                    reference.ingest_run_ops)

    async def scenario():
        return await served(), await serial()

    (replies, outputs, runs), (expected, expected_outputs, serial_runs) = asyncio.run(
        asyncio.wait_for(scenario(), TIMEOUT * 4))
    assert replies == expected
    assert outputs == expected_outputs
    # Runs really formed, and the replay is one op per run.
    ingests = sum(isinstance(op, IngestOp) for script in scripts for op in script)
    assert runs[1] == ingests and runs[0] < ingests / 3, runs
    assert serial_runs == (ingests, ingests)
    # The comparison is meaningful: refusals, per-record lists and output rows.
    flat = [sig for client in expected for sig in client]
    assert ("error", "SchemaError") in flat
    assert any(isinstance(op, IngestOp) and op.records and "RainRate" in op.records[0]
               for script in scripts for op in script)
    rows, appended = expected_outputs
    assert all(rows) and all(appended.values())
