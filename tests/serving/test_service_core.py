"""The served request path is the service core and nothing else.

Between the socket and the PDP there is one path: no simulated network
(no sampled delay, no virtual clock), one evaluator (whatever sits at
``server.instance.pdp``), and none of the pass-through options that used
to select between otherwise identical configurations.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import sys
import threading
from pathlib import Path

import pytest

from repro.core import XacmlPlusInstance, stream_policy
from repro.core.pep import PolicyEnforcementPoint
from repro.framework.network import SimulatedNetwork
from repro.framework.messages import StreamRequestMessage
from repro.framework.server import DataServer
from repro.serving import AsyncClient
from repro.serving.server import AsyncDataServer
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
)
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.streams.stream import INGEST_CHUNK
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import policy_to_xml, request_to_xml

from serving_helpers import TIMEOUT, make_data_server, weather_graph

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def evaluate_op(subject="LTA", stream="weather", decide_only=False):
    return EvaluateOp(
        request_to_xml(Request.simple(subject, stream)), None, decide_only
    )


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, TIMEOUT))


class TestNoSimulationOnTheServedPath:
    def test_benchmark_tracer_installs_and_sees_no_network_spans(self):
        """``benchmarks/e2e/trace.py`` rebinds every layer by name, the
        simulated-network calls included: it must still install, and a
        load / full evaluate / revoke must cross the framework and PDP
        layers without one ``network.*`` span."""
        if str(ROOT) not in sys.path:
            sys.path.insert(0, str(ROOT))
        from benchmarks.e2e.trace import Tracer

        engine = StreamEngine()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        # Built as benchmarks/e2e/serve.py builds it: the network is
        # handed over, exposed as ``.network`` and never called.
        network = SimulatedNetwork()
        server = DataServer(network, engine=engine, enforce_single_access=False,
                            allow_partial_results=True)
        front = AsyncDataServer(server)
        policy = stream_policy("p:LTA", "weather", weather_graph(), subject="LTA")
        tracer = Tracer(front)
        tracer.install()
        try:
            replies = [
                run(front.execute(op))
                for op in (LoadOp(policy_to_xml(policy)), evaluate_op(),
                           RevokeOp("p:LTA"))
            ]
        finally:
            tracer.uninstall()
        assert replies[1].ok and replies[1].handle_uri
        names = [span[0] for span in tracer.spans]
        assert names.count("framework.policy_admin") == 2
        assert names.count("framework.process") == 1
        assert names.count("pdp.evaluate") == 1
        # The load parses through the name the tracer rebinds.
        assert names.count("xml_io.parse_policy") == 1
        assert not [name for name in names if name.startswith("network.")]
        assert server.network is network and network.clock.now() == 0.0
        assert tracer.server_timing["dsms_submit"] > 0.0

    def test_unhosted_stream_is_an_evaluate_reply_on_the_wire(self):
        server = make_data_server()
        server.load_policy(
            stream_policy("p:ghost", "ghost", QueryGraph("ghost"), subject="LTA")
        )
        reply = run(AsyncDataServer(server).execute(evaluate_op(stream="ghost")))
        assert isinstance(reply, EvaluateReply)
        assert not reply.ok and reply.error_kind == "denied"
        assert "ghost" in reply.error_detail
        assert server.instance.access_registry.active_count() == 0
        assert server.instance.engine.active_queries() == []


    def test_unenforceable_obligation_is_an_evaluate_reply_on_the_wire(self):
        """The permitting policy filters on an attribute the stream
        lacks: the client gets an ``invalid`` evaluate reply, not the
        server's exception by name, and nothing is registered."""
        server = make_data_server()
        graph = QueryGraph("weather").append(FilterOperator("nosuch > 5"))
        server.load_policy(stream_policy("p:nosuch", "weather", graph, subject="NEA"))
        reply = run(AsyncDataServer(server).execute(evaluate_op(subject="NEA")))
        assert isinstance(reply, EvaluateReply)
        assert not reply.ok and reply.error_kind == "invalid"
        assert "nosuch" in reply.error_detail
        assert server.requests_processed == 1
        assert server.instance.engine.active_queries() == []


class TestOptionCensus:
    REMOVED = {"use_index", "pdp_use_index", "pdp_cache_size", "clock", "pool"}

    @pytest.mark.parametrize("cls", [
        PolicyDecisionPoint, XacmlPlusInstance, PolicyEnforcementPoint,
        DataServer, AsyncDataServer,
    ])
    def test_pass_through_knobs_are_gone(self, cls):
        signatures = [inspect.signature(cls)] + [
            inspect.signature(member)
            for name, member in inspect.getmembers(cls, callable)
            if not name.startswith("_")
        ]
        for signature in signatures:
            assert not self.REMOVED & set(signature.parameters), (cls, signature)

    def test_served_packages_do_not_import_the_simulated_network(self):
        offenders = []
        for package in ("serving", "loadgen"):
            for path in sorted((SRC / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    modules = []
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""] + [
                            f"{node.module}.{alias.name}" for alias in node.names
                        ]
                    if any(m.startswith("repro.framework.network") or
                           m.endswith("SimulatedNetwork") for m in modules):
                        offenders.append(str(path.relative_to(ROOT)))
        assert offenders == []


class TestOneEvaluator:
    def test_the_built_pdp_is_the_only_subscribed_evaluator(self):
        bare = PolicyStore()
        PolicyDecisionPoint(bare)

        server = make_data_server()
        instance = server.instance
        assert instance.pep.pdp is instance.pdp
        # The instance adds exactly its graph manager to the store.
        assert len(instance.store._listeners) == len(bare._listeners) + 1

        front = AsyncDataServer(server)
        decided = run(front.execute(evaluate_op(decide_only=True)))
        granted = run(front.execute(evaluate_op()))
        assert decided.ok and granted.ok and granted.handle_uri
        assert (instance.pdp.cache.misses, instance.pdp.cache.hits) == (1, 1)

    def test_no_served_op_leaves_the_event_loop(self):
        calls = [
            str(path.relative_to(ROOT))
            for path in sorted((SRC / "serving").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "run_in_executor"
        ]
        assert calls == []


class TestEveryOpRunsOnTheLoop:
    def test_evaluates_and_stats_run_on_the_loop_thread(self):
        server = make_data_server()
        threads = []

        def on_thread(call):
            def recorded(*args):
                threads.append((call.__name__, threading.get_ident()))
                return call(*args)
            return recorded

        pdp = server.instance.pdp
        pdp.evaluate = on_thread(pdp.evaluate)

        async def scenario():
            async with AsyncDataServer(server) as front:
                front.registry.snapshot = on_thread(front.registry.snapshot)
                async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                    decided = await client.evaluate(Request.simple("LTA", "weather"),
                                                    decide_only=True)
                    granted = await client.evaluate(Request.simple("LTA", "weather"))
                    stats = await client.call(StatsOp())
            assert decided.ok and granted.ok and isinstance(stats, StatsReply)
            return threading.get_ident()

        loop_thread = run(scenario())
        assert threads == [("evaluate", loop_thread)] * 2 + [("snapshot", loop_thread)]


class TestRefusedIngestIsAtomic:
    def test_error_reply_means_nothing_was_ingested(self):
        """One frame can carry more records than the engine dispatches
        at once; a malformed record behind that boundary must refuse
        the whole op, and the connection carries on in order."""
        records = WeatherSource(seed=3).records(INGEST_CHUNK + 6)
        records[-1] = dict(records[-1], samplingtime="yesterday")

        async def scenario():
            server = make_data_server()
            engine = server.instance.engine
            granted, _ = server.process(
                StreamRequestMessage(Request.simple("LTA", "weather"), None)
            )
            output = engine.lookup(granted.handle_uri).output
            async with AsyncDataServer(server) as front:
                client = await AsyncClient.connect("127.0.0.1", front.port)
                async with client:
                    replies = await client.pipeline([
                        IngestOp("weather", records[:2]),
                        IngestOp("weather", records),
                        PingOp(),
                        IngestOp("weather", records[:3]),
                    ])
            return replies, engine.catalog.get("weather").total_appended, output

        replies, appended, output = run(scenario())
        assert replies[0] == AckReply("ingest", count=2)
        assert isinstance(replies[1], ErrorReply)
        assert replies[1].error_kind == "SchemaError"
        assert "'yesterday'" in replies[1].error_detail
        assert replies[2:] == [AckReply("ping"), AckReply("ingest", count=3)]
        assert appended == 5
        # The granted query saw the five accepted tuples and no others.
        assert output.total_appended == sum(
            1 for record in records[:2] + records[:3] if record["rainrate"] > 5
        )
