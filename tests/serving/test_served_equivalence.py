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
"""

import asyncio
import random

import pytest

from repro.core import stream_policy
from repro.loadgen.mix import derive_seed
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.wire import (
    AckReply,
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
