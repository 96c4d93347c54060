"""Served-smoke entry point: ``python -m repro.serving.smoke``.

Starts a real :class:`AsyncDataServer` on an ephemeral loopback port,
drives a short mixed workload (evaluate / ingest / load / update /
revoke) over several pipelined connections, prints the per-op
percentile report and exits non-zero unless every op type produced
latency samples.  CI runs this as the served-smoke job; it is also the
quickest local way to see the serving stack working end to end.
"""

from __future__ import annotations

import asyncio
import random
import sys
import time

from repro.core import stream_policy
from repro.framework.server import DataServer
from repro.serving.client import AsyncClient
from repro.serving.server import AsyncDataServer
from repro.serving.wire import EvaluateOp, IngestOp, LoadOp, RevokeOp, UpdateOp
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

N_CONNECTIONS = 4
OPS_PER_CONNECTION = 150
STREAM = "weather"
TIMEOUT = 60.0

EXPECTED_OPS = ("EvaluateOp", "IngestOp", "LoadOp", "UpdateOp", "RevokeOp")


def make_server() -> DataServer:
    engine = StreamEngine()
    engine.register_input_stream(STREAM, WEATHER_SCHEMA)
    server = DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
    )
    for j in range(8):
        server.load_policy(
            stream_policy(
                f"p:{j}",
                STREAM,
                QueryGraph(STREAM).append(FilterOperator("rainrate > 5")),
                subject=f"user{j}",
            )
        )
    return server


def build_script(connection_id: int):
    rng = random.Random(1000 + connection_id)
    ops = []
    live = []
    sequence = 0
    graph = lambda t: QueryGraph(STREAM).append(FilterOperator(f"rainrate > {t}"))  # noqa: E731
    for _ in range(OPS_PER_CONNECTION):
        roll = rng.random()
        if roll < 0.7:
            subject = f"user{rng.randrange(10)}"  # user8/user9 → denied
            ops.append(
                EvaluateOp(
                    request_to_xml(Request.simple(subject, STREAM)), None, True
                )
            )
        elif roll < 0.8:
            records = [
                {
                    "samplingtime": i,
                    "temperature": 25.0,
                    "humidity": 60.0,
                    "solarradiation": 100.0,
                    "rainrate": rng.uniform(0, 12),
                    "windspeed": 3.0,
                    "winddirection": 90,
                    "barometer": 1013.0,
                }
                for i in range(3)
            ]
            ops.append(IngestOp(STREAM, records))
        else:
            kind = rng.choice(["load", "update", "revoke"])
            if kind == "load" or not live:
                pid = f"churn:{connection_id}:{sequence}"
                sequence += 1
                live.append(pid)
                policy = stream_policy(
                    pid, STREAM, graph(rng.randint(1, 9)),
                    subject=f"churn:{connection_id}",
                )
                ops.append(LoadOp(policy_to_xml(policy)))
            elif kind == "update":
                policy = stream_policy(
                    rng.choice(live), STREAM, graph(rng.randint(1, 9)),
                    subject=f"churn:{connection_id}",
                )
                ops.append(UpdateOp(policy_to_xml(policy)))
            else:
                ops.append(RevokeOp(live.pop(rng.randrange(len(live)))))
    return ops


async def run_smoke() -> int:
    server = make_server()
    scripts = [build_script(cid) for cid in range(N_CONNECTIONS)]
    total = sum(len(script) for script in scripts)
    started = time.perf_counter()
    async with AsyncDataServer(server) as front:
        print(f"serving on 127.0.0.1:{front.port} — "
              f"{N_CONNECTIONS} connections x {OPS_PER_CONNECTION} ops")

        async def drive(script):
            async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                for start in range(0, len(script), 25):
                    await client.pipeline(script[start:start + 25])

        await asyncio.gather(*(drive(script) for script in scripts))
        elapsed = time.perf_counter() - started
        print(front.stats.table())
        print(
            f"{total} requests in {elapsed:.2f}s "
            f"({total / elapsed:.0f} req/s, {front.read_pauses} read pauses)"
        )
        report = front.stats.to_dict()
    missing = [op for op in EXPECTED_OPS if not report.get(op, {}).get("count")]
    if missing:
        print(f"FAIL: no percentile samples for {missing}", file=sys.stderr)
        return 1
    bad = [
        op for op in EXPECTED_OPS
        if not (
            report[op]["p50_ms"] <= report[op]["p90_ms"] <= report[op]["p99_ms"]
        )
    ]
    if bad:
        print(f"FAIL: unordered percentiles for {bad}", file=sys.stderr)
        return 1
    print("served-smoke OK: percentile report emitted for every op type")
    return 0


def main() -> int:
    return asyncio.run(asyncio.wait_for(run_smoke(), TIMEOUT))


if __name__ == "__main__":
    raise SystemExit(main())
