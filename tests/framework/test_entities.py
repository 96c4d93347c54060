"""Tests for server, proxy, client and the direct-query baseline."""

import time

import pytest

from repro.core import UserQuery, stream_policy
from repro.core.obligations import (
    FILTER_CONDITION_ID,
    FILTER_OBLIGATION,
    WINDOW_OBLIGATION,
)
from repro.errors import ExpressionError, ObligationError, UnknownAttributeError
from repro.framework.client import ClientInterface
from repro.framework.direct import DirectQuerySystem
from repro.framework.messages import StreamRequestMessage
from repro.framework.network import SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.framework.server import DataServer
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.attributes import AttributeValue
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import AttributeAssignment, Effect, Obligation
from tests.conftest import window_obligation


def _filter_obligation(condition: str) -> Obligation:
    return Obligation(FILTER_OBLIGATION, Effect.PERMIT, [
        AttributeAssignment(FILTER_CONDITION_ID, AttributeValue.string(condition)),
    ])


#: (obligations, what the PEP raises, what the response's detail names).
UNENFORCEABLE = [
    pytest.param([_filter_obligation("nosuch > 5")], UnknownAttributeError,
                 "nosuch", id="unknown-attribute"),
    pytest.param([Obligation(WINDOW_OBLIGATION, Effect.PERMIT, [])], ObligationError,
                 "window type, size and step", id="malformed-obligation"),
    pytest.param([_filter_obligation("rainrate >")], ExpressionError,
                 "expected a literal", id="malformed-condition"),
    # xs:double 2.9 used to truncate to a size-2 (finer) window and permit.
    pytest.param([window_obligation(2.9, 1)], ObligationError,
                 "bad window size: 2.9", id="fractional-window-size"),
]


def deploy(cache_enabled=True, enforce_single_access=False):
    network = SimulatedNetwork()
    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    server = DataServer(
        network,
        engine=engine,
        enforce_single_access=enforce_single_access,
        allow_partial_results=True,
    )
    proxy = Proxy(server, network, cache_enabled=cache_enabled)
    client = ClientInterface(proxy, network)
    graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
    server.load_policy(stream_policy("p1", "weather", graph, subject="LTA"))
    return network, server, proxy, client


class TestServer:
    def test_unhosted_stream_is_an_error_response(self):
        """A policy may permit a stream the engine does not host: the
        PEP's schema lookup raises ``UnknownStreamError``, which must
        come back as a ``denied`` response naming the stream — at the
        server and through proxy and client — leaving nothing behind."""
        network, server, proxy, client = deploy(enforce_single_access=True)
        server.load_policy(
            stream_policy("p:ghost", "ghost", QueryGraph("ghost"), subject="LTA")
        )
        message = StreamRequestMessage(Request.simple("LTA", "ghost"), None)
        response, timing = server.process(message)
        assert not response.ok and response.error_kind == "denied"
        assert "ghost" in response.error_detail
        assert timing.script_bytes == 0
        assert not proxy.process(message).response.ok
        _, trace = client.request_stream(Request.simple("LTA", "ghost"))
        assert trace.outcome == "denied"
        # The PEP raised before ``acquire``/``register_query``.
        assert server.instance.access_registry.active_count() == 0
        assert server.instance.engine.active_queries() == []
        assert server.instance.graph_manager.active_count() == 0

    def test_failed_mutation_costs_no_virtual_time_and_no_draw(self):
        from repro.errors import PolicyStoreError
        from repro.framework.network import LatencyModel

        network, server, _, _ = deploy()
        before = network.clock.now()
        ghost = stream_policy("nope", "weather", QueryGraph("weather"), subject="X")
        with pytest.raises(PolicyStoreError):
            server.update_policy(ghost)
        with pytest.raises(PolicyStoreError):
            server.remove_policy("nope")
        assert network.clock.now() - before == 0.0
        # deploy() loaded one policy without charging it, so the next
        # sampled delay is a fresh same-seed model's first.
        assert network.policy_load() == LatencyModel().policy_load_delay()

    def test_permit_response(self):
        _, server, _, _ = deploy()
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        response, timing = server.process(message)
        assert response.ok
        assert response.handle_uri.startswith("stream://")
        assert timing.pdp >= 0
        assert timing.dsms_submit > 0

    def test_denied_response_not_exception(self):
        _, server, _, _ = deploy()
        message = StreamRequestMessage(Request.simple("nobody", "weather"), None)
        response, _ = server.process(message)
        assert not response.ok
        assert response.error_kind == "denied"

    def test_nr_response(self):
        _, server, _, _ = deploy()
        query = UserQuery("weather", filter_condition="rainrate < 2")
        message = StreamRequestMessage(Request.simple("LTA", "weather"), query)
        response, _ = server.process(message)
        assert response.error_kind == "nr"

    def test_concurrent_response_when_enforced(self):
        _, server, _, _ = deploy(enforce_single_access=True)
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        first, _ = server.process(message)
        assert first.ok
        second, _ = server.process(message)
        assert second.error_kind == "concurrent"

    @pytest.mark.parametrize("obligations, error, detail", UNENFORCEABLE)
    def test_unenforceable_obligation_is_an_error_response(
        self, obligations, error, detail
    ):
        """A permitting policy whose obligations cannot become a graph
        over the stream — an attribute the stream lacks, a malformed
        obligation block, a condition that does not parse — used to
        raise out of ``process``; it is an ``invalid`` response, twice
        over (a refusal is never remembered), and leaves nothing behind."""
        _, server, _, _ = deploy()
        server.load_policy(Policy(
            "p:broken",
            target=Target.for_ids(subject="NEA", resource="weather", action="read"),
            rules=[Rule("p:broken:rule", Effect.PERMIT)],
            obligations=obligations,
        ))
        message = StreamRequestMessage(Request.simple("NEA", "weather"), None)
        with pytest.raises(error):
            server.instance.request_stream(message.request)
        for processed in (1, 2):
            response, timing = server.process(message)
            assert not response.ok and response.error_kind == "invalid"
            assert detail in response.error_detail
            assert response.handle_uri is None and timing.script_bytes == 0
            assert server.requests_processed == processed
        assert len(server.instance.pep.templates) == 0
        assert server.instance.engine.active_queries() == []
        assert server.instance.access_registry.active_count() == 0
        assert server.instance.graph_manager.active_count() == 0


#: One request per refusal kind, after *setup* (subject, user query).
REFUSALS = [
    pytest.param("denied", lambda server: None, "nobody", None, id="denied"),
    pytest.param(
        "concurrent",
        lambda server: server.process(StreamRequestMessage(Request.simple("LTA", "weather"), None)),
        "LTA", None, id="concurrent",
    ),
    pytest.param("nr", lambda server: None, "LTA",
                 UserQuery("weather", filter_condition="rainrate < 2"), id="nr"),
    pytest.param(
        "pr",
        lambda server: setattr(server.instance.pep, "allow_partial_results", False),
        "LTA", UserQuery("weather", filter_condition="rainrate > 3"), id="pr",
    ),
    pytest.param(
        "invalid",
        lambda server: server.load_policy(Policy(
            "p:broken",
            target=Target.for_ids(subject="NEA", resource="weather", action="read"),
            rules=[Rule("p:broken:rule", Effect.PERMIT)],
            obligations=[_filter_obligation("nosuch > 5")],
        )),
        "NEA", None, id="invalid",
    ),
]


class TestRefusalTiming:
    @pytest.mark.parametrize("kind, setup, subject, query", REFUSALS)
    def test_a_refusal_bills_its_pdp_time_to_pdp(self, kind, setup, subject, query, monkeypatch):
        """A refused request used to report ``pdp=0`` and its PDP time
        as query-graph time; the PEP's stage times now travel with the
        refusal and split ``compute_total`` (which keeps its value)."""
        _, server, _, _ = deploy(enforce_single_access=kind == "concurrent")
        setup(server)
        pdp = server.instance.pdp
        evaluate = pdp.evaluate

        def slow_evaluate(request):
            time.sleep(0.02)
            return evaluate(request)

        monkeypatch.setattr(pdp, "evaluate", slow_evaluate)
        message = StreamRequestMessage(Request.simple(subject, "weather"), query)
        response, timing = server.process(message)
        assert response.error_kind == kind
        assert timing.pdp >= 0.02 > timing.query_graph >= 0
        assert timing.dsms_submit == 0.0
        assert timing.pdp + timing.query_graph == pytest.approx(timing.compute_total)


class TestProxyCache:
    def test_hit_skips_server(self):
        _, server, proxy, _ = deploy()
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        first = proxy.process(message)
        second = proxy.process(message)
        assert not first.cache_hit and second.cache_hit
        assert second.response.handle_uri == first.response.handle_uri
        assert server.requests_processed == 1
        assert proxy.hit_rate == 0.5

    def test_hit_is_faster(self):
        network, _, proxy, _ = deploy()
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        start = network.clock.now()
        proxy.process(message)
        miss_time = network.clock.now() - start
        start = network.clock.now()
        proxy.process(message)
        hit_time = network.clock.now() - start
        assert hit_time < miss_time / 2

    def test_different_queries_do_not_collide(self):
        _, server, proxy, _ = deploy()
        plain = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        custom = StreamRequestMessage(
            Request.simple("LTA", "weather"),
            UserQuery("weather", filter_condition="rainrate > 50"),
        )
        proxy.process(plain)
        result = proxy.process(custom)
        assert not result.cache_hit
        assert server.requests_processed == 2

    def test_errors_not_cached(self):
        _, server, proxy, _ = deploy()
        message = StreamRequestMessage(Request.simple("nobody", "weather"), None)
        proxy.process(message)
        result = proxy.process(message)
        assert not result.cache_hit
        assert server.requests_processed == 2

    def test_cache_disabled(self):
        _, server, proxy, _ = deploy(cache_enabled=False)
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        proxy.process(message)
        result = proxy.process(message)
        assert not result.cache_hit
        assert server.requests_processed == 2

    def test_revoked_handle_not_served_from_cache(self):
        _, server, proxy, _ = deploy()
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        first = proxy.process(message)
        server.instance.remove_policy("p1")
        result = proxy.process(message)
        assert not result.cache_hit
        assert result.response.handle_uri != first.response.handle_uri

    def test_lru_eviction(self):
        network, server, proxy, _ = deploy()
        proxy.cache_capacity = 1
        for subject, policy_id in (("NEA", "p-nea"), ("PUB", "p-pub")):
            graph = QueryGraph("weather").append(FilterOperator("rainrate > 1"))
            server.load_policy(
                stream_policy(policy_id, "weather", graph, subject=subject)
            )
        lta = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        nea = StreamRequestMessage(Request.simple("NEA", "weather"), None)
        proxy.process(lta)
        proxy.process(nea)   # evicts lta
        assert not proxy.process(lta).cache_hit

    def test_invalidate(self):
        _, _, proxy, _ = deploy()
        message = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        proxy.process(message)
        proxy.invalidate()
        assert not proxy.process(message).cache_hit


class TestClient:
    def test_trace_recorded(self):
        network, _, _, client = deploy()
        response, trace = client.request_stream(Request.simple("LTA", "weather"))
        assert response.ok
        assert trace.total > 0
        assert trace.network > 0
        assert trace.outcome == "ok"
        assert client.metrics.traces == [trace]

    def test_breakdown_sums_below_total(self):
        _, _, _, client = deploy()
        _, trace = client.request_stream(Request.simple("LTA", "weather"))
        assert trace.pdp + trace.query_graph + trace.dsms_submit <= trace.total + 1e-6

    def test_denied_trace(self):
        _, _, _, client = deploy()
        response, trace = client.request_stream(Request.simple("nobody", "weather"))
        assert not response.ok
        assert trace.outcome == "denied"


class TestDirectQuery:
    SCRIPT = (
        "CREATE OUTPUT STREAM output;\n"
        "SELECT * FROM weather WHERE rainrate > 5 INTO output;\n"
    )

    def test_submit_registers_query(self):
        network, server, _, _ = deploy()
        direct = DirectQuerySystem(server.instance.engine, network)
        response, trace = direct.submit(self.SCRIPT)
        assert response.ok
        assert trace.system == "direct"
        assert trace.pdp == 0.0
        server.instance.engine.lookup(response.handle_uri)

    def test_bad_script_is_error_response(self):
        network, server, _, _ = deploy()
        direct = DirectQuerySystem(server.instance.engine, network)
        for script in (
            "SELECT FROM nothing",
            "CREATE OUTPUT STREAM output;\n"
            "SELECT * FROM weather WHERE rainrate >> 5 INTO output;\n",
        ):
            response, trace = direct.submit(script)
            assert not response.ok
            assert trace.outcome == "error"

    def test_direct_faster_than_exacml(self):
        network, server, proxy, client = deploy()
        direct = DirectQuerySystem(server.instance.engine, network)
        # Warm both DSMS connection pools first.
        for _ in range(6):
            direct.submit(self.SCRIPT)
            client.request_stream(Request.simple("LTA", "weather"))
        proxy.cache_enabled = False
        _, direct_trace = direct.submit(self.SCRIPT)
        _, exacml_trace = client.request_stream(Request.simple("LTA", "weather"))
        assert direct_trace.total < exacml_trace.total
