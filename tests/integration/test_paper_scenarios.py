"""End-to-end reproductions of the paper's worked examples.

- Example 1 / Figure 1 / Figure 4: NEA weather policy, LTA warning
  system, merged StreamSQL, live data flowing through the merged query;
- Example 2 (Section 3.4): multi-window reconstruction;
- Example 3 / Example 4 (Section 3.5): PR and NR detection;
- Section 3.3: revocation on policy removal, through the full framework
  (client → proxy → server), including the proxy cache path.
"""

import pytest

from repro.core import UserQuery, XacmlPlusInstance, stream_policy
from repro.errors import (
    EmptyResultWarning,
    PartialResultWarning,
)
from repro.framework.client import ClientInterface
from repro.framework.messages import StreamRequestMessage
from repro.framework.network import SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.framework.server import DataServer
from repro.streams.engine import StreamEngine
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.request import Request
from tests.conftest import build_lta_user_query, build_nea_policy_graph


class TestNeaLtaScenario:
    """The running example of Sections 2.2 and 3.1."""

    @pytest.fixture
    def instance(self):
        instance = XacmlPlusInstance(allow_partial_results=True)
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        instance.load_policy(
            stream_policy(
                "nea:weather:lta", "weather", build_nea_policy_graph(),
                subject="LTA",
                description="NEA weather policy for the LTA warning system",
            )
        )
        return instance

    def test_policy_only_request(self, instance):
        result = instance.request_stream(Request.simple("LTA", "weather"))
        instance.engine.push_batch("weather", WeatherSource(seed=3).records(200))
        outputs = instance.engine.read(result.handle)
        assert outputs
        # Policy semantics: windows of 5 rainy tuples, advance 2.
        assert set(outputs[0].schema.attribute_names) == {
            "lastvalsamplingtime", "avgrainrate", "maxwindspeed",
        }
        assert all(t["avgrainrate"] > 5 for t in outputs)

    def test_customised_query_request(self, instance):
        result = instance.request_stream(
            Request.simple("LTA", "weather"), build_lta_user_query()
        )
        assert "rainrate > 50" in result.streamsql
        instance.engine.push_batch("weather", WeatherSource(seed=3).records(400))
        outputs = instance.engine.read(result.handle)
        assert outputs
        assert all(t["avgrainrate"] > 50 for t in outputs)

    def test_merged_output_equals_manual_pipeline(self, instance):
        """The merged query must equal policy-then-user applied in sequence."""
        records = WeatherSource(seed=9).records(600)
        result = instance.request_stream(
            Request.simple("LTA", "weather"), build_lta_user_query()
        )
        instance.engine.push_batch("weather", records)
        merged_outputs = instance.engine.read(result.handle)

        # Manual oracle: rainrate>50, then windows of 10 advance 2 of
        # (lastval samplingtime, avg rainrate).
        passed = [r for r in records if r["rainrate"] > 50]
        expected = []
        k = 0
        while k * 2 + 10 <= len(passed):
            window = passed[k * 2: k * 2 + 10]
            expected.append(
                (
                    window[-1]["samplingtime"],
                    sum(w["rainrate"] for w in window) / 10,
                )
            )
            k += 1
        got = [(t["lastvalsamplingtime"], t["avgrainrate"]) for t in merged_outputs]
        assert len(got) == len(expected)
        for (gt, gr), (et, er) in zip(got, expected):
            assert gt == et
            assert gr == pytest.approx(er)


class TestFullFrameworkFlow:
    """Client → proxy → server flow with cache and revocation."""

    @pytest.fixture
    def deployment(self):
        network = SimulatedNetwork()
        engine = StreamEngine()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        server = DataServer(
            network, engine=engine,
            enforce_single_access=False, allow_partial_results=True,
        )
        proxy = Proxy(server, network)
        client = ClientInterface(proxy, network)
        server.load_policy(
            stream_policy(
                "nea:weather:lta", "weather", build_nea_policy_graph(),
                subject="LTA",
            )
        )
        return network, server, proxy, client

    def test_request_to_data_round_trip(self, deployment):
        _, server, _, client = deployment
        response, trace = client.request_stream(
            Request.simple("LTA", "weather"), build_lta_user_query()
        )
        assert response.ok
        server.instance.engine.push_batch(
            "weather", WeatherSource(seed=3).records(400)
        )
        outputs = server.instance.engine.read(response.handle_uri)
        assert outputs

    def test_cached_handle_reuse(self, deployment):
        _, server, proxy, client = deployment
        first, _ = client.request_stream(Request.simple("LTA", "weather"))
        second, trace = client.request_stream(Request.simple("LTA", "weather"))
        assert trace.cache_hit
        assert second.handle_uri == first.handle_uri
        assert server.requests_processed == 1

    def test_revocation_reaches_cached_clients(self, deployment):
        _, server, proxy, client = deployment
        first, _ = client.request_stream(Request.simple("LTA", "weather"))
        server.instance.remove_policy("nea:weather:lta")
        # The engine no longer serves the revoked handle.
        from repro.errors import UnknownHandleError

        with pytest.raises(UnknownHandleError):
            server.instance.engine.read(first.handle_uri)
        # And the proxy does not serve the dead handle from cache; with
        # the policy gone the request is now denied.
        response, trace = client.request_stream(Request.simple("LTA", "weather"))
        assert not trace.cache_hit
        assert not response.ok
        assert response.error_kind == "denied"


class TestWarningScenarios:
    """Examples 3 and 4 driven through the full PEP."""

    def make_instance(self, policy_condition):
        from repro.streams.graph import QueryGraph
        from repro.streams.operators import FilterOperator
        from repro.streams.schema import Schema

        schema = Schema("s", [("a", "double"), ("b", "double")])
        instance = XacmlPlusInstance()
        instance.engine.register_input_stream("s", schema)
        graph = QueryGraph("s").append(FilterOperator(policy_condition))
        instance.load_policy(stream_policy("p", "s", graph, subject="u"))
        return instance

    def test_example3_pr(self):
        instance = self.make_instance("a > 8")
        with pytest.raises(PartialResultWarning):
            instance.request_stream(
                Request.simple("u", "s"), UserQuery("s", filter_condition="a > 5")
            )

    def test_example3_nr(self):
        instance = self.make_instance("a < 4")
        with pytest.raises(EmptyResultWarning):
            instance.request_stream(
                Request.simple("u", "s"), UserQuery("s", filter_condition="a > 5")
            )

    def test_example4_nr(self):
        instance = self.make_instance("(a > 20 AND a < 30) OR NOT (a != 40)")
        query = UserQuery("s", filter_condition="NOT (a >= 10) AND b = 20")
        with pytest.raises(EmptyResultWarning):
            instance.request_stream(Request.simple("u", "s"), query)

    def test_nr_differs_from_denial(self):
        """NR 'must be differed from the case where the user does not
        have access to the stream' — different exception types."""
        from repro.errors import AccessDeniedError

        instance = self.make_instance("a < 4")
        with pytest.raises(AccessDeniedError):
            instance.request_stream(Request.simple("intruder", "s"))
        with pytest.raises(EmptyResultWarning):
            instance.request_stream(
                Request.simple("u", "s"), UserQuery("s", filter_condition="a > 5")
            )
