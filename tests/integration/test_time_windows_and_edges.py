"""End-to-end time-based windows and assorted edge cases."""

import pytest

from repro.core import UserQuery, XacmlPlusInstance, stream_policy
from repro.core.obligations import graph_to_obligations, obligations_to_graph
from repro.errors import AccessDeniedError, EmptyResultWarning
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect


def time_window_graph(size=300, step=300):
    """Aggregate weather into `size`-second windows."""
    return QueryGraph("weather").append(
        AggregateOperator(
            WindowSpec(WindowType.TIME, size, step),
            [
                AggregationSpec.parse("samplingtime:lastval"),
                AggregationSpec.parse("temperature:avg"),
            ],
        )
    )


class TestTimeWindowPolicies:
    def make_instance(self):
        instance = XacmlPlusInstance(allow_partial_results=True)
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        instance.load_policy(
            stream_policy("p-time", "weather", time_window_graph(), subject="u")
        )
        return instance

    def test_time_window_obligations_round_trip(self):
        obligations = graph_to_obligations(time_window_graph())
        rebuilt = obligations_to_graph(obligations, "weather")
        window = rebuilt.aggregate_operator.window
        assert window.window_type is WindowType.TIME
        assert window.size == 300

    def test_time_window_policy_flows_data(self):
        instance = self.make_instance()
        result = instance.request_stream(Request.simple("u", "weather"))
        assert "SECONDS" in result.streamsql
        # 30-second sampling: 300 s windows close every 10 tuples.
        instance.engine.push_batch(
            "weather", WeatherSource(seed=3, interval_seconds=30.0).records(100)
        )
        outputs = instance.engine.read(result.handle)
        assert len(outputs) == 9  # 100 tuples → 9 fully closed windows
        assert all(0 < t["avgtemperature"] < 45 for t in outputs)

    def test_time_window_refinement(self):
        instance = self.make_instance()
        query = UserQuery(
            "weather",
            window=WindowSpec(WindowType.TIME, 600, 600),
            aggregations=["avg(temperature)"],
        )
        result = instance.request_stream(Request.simple("u", "weather"), query)
        assert result.merged_graph.aggregate_operator.window.size == 600

    def test_tuple_refinement_of_time_policy_rejected(self):
        instance = self.make_instance()
        query = UserQuery(
            "weather",
            window=WindowSpec(WindowType.TUPLE, 600, 600),
            aggregations=["avg(temperature)"],
        )
        with pytest.raises(EmptyResultWarning):
            instance.request_stream(Request.simple("u", "weather"), query)


class TestDenyPolicies:
    def test_explicit_deny_raises_with_decision(self):
        instance = XacmlPlusInstance()
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        instance.store.load(
            Policy(
                "deny-all",
                target=Target.for_ids(resource="weather"),
                rules=[Rule("r", Effect.DENY)],
            )
        )
        with pytest.raises(AccessDeniedError) as excinfo:
            instance.request_stream(Request.simple("anyone", "weather"))
        from repro.xacml.response import Decision

        assert excinfo.value.decision is Decision.DENY

    def test_deny_overrides_blacklist_wins(self):
        instance = XacmlPlusInstance()
        instance.pdp.combining = "deny-overrides"
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        instance.store.load(
            Policy(
                "blacklist",
                target=Target.for_ids(subject="banned", resource="weather"),
                rules=[Rule("r", Effect.DENY)],
            )
        )
        graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        instance.load_policy(stream_policy("permit", "weather", graph))
        # Non-banned subject is permitted by the broad policy...
        instance.request_stream(Request.simple("ok-user", "weather"))
        # ...but the blacklist overrides for the banned subject.
        with pytest.raises(AccessDeniedError):
            instance.request_stream(Request.simple("banned", "weather"))


class TestBareRequestSemantics:
    def test_no_user_query_never_warns(self):
        """A bare request accepts the policy view; PR must not fire."""
        instance = XacmlPlusInstance()  # strict: allow_partial_results=False
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        from repro.streams.operators import MapOperator

        graph = QueryGraph("weather").append(MapOperator(["rainrate"]))
        instance.load_policy(stream_policy("p", "weather", graph, subject="u"))
        result = instance.request_stream(Request.simple("u", "weather"))
        assert result.warnings == []

    def test_empty_user_query_treated_as_bare(self):
        instance = XacmlPlusInstance()
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        from repro.streams.operators import MapOperator

        graph = QueryGraph("weather").append(MapOperator(["rainrate"]))
        instance.load_policy(stream_policy("p", "weather", graph, subject="u"))
        result = instance.request_stream(
            Request.simple("u", "weather"), UserQuery("weather")
        )
        assert result.warnings == []


class TestEnginePushVariants:
    def test_push_stream_tuple_directly(self):
        from repro.streams.engine import StreamEngine
        from repro.streams.tuples import make_tuple

        engine = StreamEngine()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        handle = engine.register_query(
            QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        )
        tup = make_tuple(WEATHER_SCHEMA, WeatherSource(seed=1).next_record())
        engine.push("weather", tup)
        assert engine.read(handle) in ([], [tup])
