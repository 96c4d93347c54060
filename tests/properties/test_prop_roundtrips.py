"""Property-based round-trip and equivalence tests across subsystems."""

from hypothesis import given, settings, strategies as st

from repro.core.obligations import graph_to_obligations, obligations_to_graph
from repro.core.user_query import UserQuery
from repro.core.audit import AuditLog
from repro.expr.ast import (
    AndExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA, Field, Schema
from repro.streams.streamsql import generate_streamsql, parse_streamsql
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.response import Effect
from repro.xacml.xml_io import parse_policy_xml, policy_to_xml

WEATHER_ATTRS = [f.name for f in WEATHER_SCHEMA]
NUMERIC_ATTRS = ["temperature", "humidity", "rainrate", "windspeed"]

conditions = st.sampled_from(
    ["rainrate > 5", "windspeed <= 12 AND humidity > 40",
     "temperature < 35 OR rainrate >= 1", None]
)
map_sets = st.lists(
    st.sampled_from(WEATHER_ATTRS), min_size=1, max_size=5, unique=True
) | st.none()
windows = st.tuples(
    st.sampled_from([WindowType.TUPLE, WindowType.TIME]),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
) | st.none()
agg_specs = st.lists(
    st.tuples(st.sampled_from(NUMERIC_ATTRS),
              st.sampled_from(["avg", "sum", "min", "max"])),
    min_size=1, max_size=3, unique_by=lambda pair: pair,
)


@st.composite
def policy_graphs(draw):
    graph = QueryGraph("weather")
    condition = draw(conditions)
    if condition:
        graph.append(FilterOperator(condition))
    map_attrs = draw(map_sets)
    window = draw(windows)
    specs = None
    if window is not None:
        specs = [AggregationSpec.parse(f"{a}:{f}") for a, f in draw(agg_specs)]
        if map_attrs is not None:
            map_attrs = sorted(set(map_attrs) | {s.attribute for s in specs}
                               | {"samplingtime"})
        elif window[0] is WindowType.TIME:
            pass  # schema has samplingtime for the time attribute
    if map_attrs is not None:
        graph.append(MapOperator(map_attrs))
    if window is not None:
        graph.append(AggregateOperator(WindowSpec(*window), specs))
    return graph


class TestObligationRoundTrip:
    @given(policy_graphs())
    @settings(max_examples=200, deadline=None)
    def test_graph_obligations_graph_identity(self, graph):
        rebuilt = obligations_to_graph(graph_to_obligations(graph), "weather")
        assert [op.kind for op in rebuilt.operators] == [
            op.kind for op in graph.operators
        ]
        if graph.filter_operator is not None:
            assert (
                rebuilt.filter_operator.condition.to_condition_string()
                == graph.filter_operator.condition.to_condition_string()
            )
        if graph.map_operator is not None:
            assert (
                rebuilt.map_operator.attribute_set()
                == graph.map_operator.attribute_set()
            )
        if graph.aggregate_operator is not None:
            original = graph.aggregate_operator
            copy = rebuilt.aggregate_operator
            assert copy.window == original.window
            assert {s.key for s in copy.aggregations} == {
                s.key for s in original.aggregations
            }

    @given(policy_graphs())
    @settings(max_examples=100, deadline=None)
    def test_policy_xml_round_trip_preserves_obligations(self, graph):
        policy = Policy(
            "p",
            target=Target.for_ids(resource="weather"),
            rules=[Rule("r", Effect.PERMIT)],
            obligations=graph_to_obligations(graph),
        )
        parsed = parse_policy_xml(policy_to_xml(policy))
        assert parsed.obligations == policy.obligations


class TestUserQueryRoundTrip:
    @given(conditions, map_sets,
           st.tuples(st.integers(min_value=1, max_value=20),
                     st.integers(min_value=1, max_value=20)) | st.none())
    @settings(max_examples=200, deadline=None)
    def test_xml_round_trip(self, condition, map_attrs, window_geometry):
        window = (
            WindowSpec(WindowType.TUPLE, *window_geometry)
            if window_geometry is not None
            else None
        )
        query = UserQuery(
            "weather",
            filter_condition=condition,
            map_attributes=map_attrs or (),
            window=window,
            aggregations=["avg(rainrate)"] if window else (),
        )
        again = UserQuery.from_xml(query.to_xml())
        assert again.stream == query.stream
        assert (again.filter_condition is None) == (query.filter_condition is None)
        if query.filter_condition is not None:
            assert (
                again.filter_condition.to_condition_string()
                == query.filter_condition.to_condition_string()
            )
        assert again.map_attributes == query.map_attributes
        assert again.window == query.window
        assert again.aggregations == query.aggregations
        # The value as a whole — what the PEP keys compiled grants by.
        assert again == query and hash(again) == hash(query)


SENSOR_SCHEMA = Schema("sensor", [Field("reading", "double"), Field("city", "string")])

#: Negative, fractional and exponent-form numbers, and strings holding
#: what a script would read as a qualifier dot, a comment or a quote.
numbers = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-10**6, 10**6)
    | st.sampled_from([-2.5e6, -0.5, 1e-7, -3.25e-12])
)
strings = st.sampled_from(["", "sg.west", "a--b", "it's", "''", "x.y -- z"]) | st.text(
    alphabet="ab.-' ;", max_size=8
)
condition_leaves = st.builds(
    SimpleExpression, st.just("reading"), st.sampled_from(tuple(Operator)), numbers
) | st.builds(
    SimpleExpression, st.just("city"), st.sampled_from((Operator.EQ, Operator.NE)), strings
)
condition_trees = st.recursive(
    condition_leaves,
    lambda children: st.builds(NotExpression, children)
    | st.lists(children, min_size=2, max_size=3).map(lambda c: AndExpression(tuple(c)))
    | st.lists(children, min_size=2, max_size=3).map(lambda c: OrExpression(tuple(c))),
    max_leaves=8,
)


class TestStreamSQLRoundTrip:
    """A generated WHERE clause parses back to the condition it was
    generated from: ``==``, not merely the same rendering."""

    @given(condition_trees)
    @settings(max_examples=300, deadline=None)
    def test_generated_condition_parses_back(self, condition):
        graph = QueryGraph("sensor").append(FilterOperator(condition))
        script = generate_streamsql(graph, SENSOR_SCHEMA)
        parsed = parse_streamsql(script)
        assert parsed.graph.filter_operator.condition == condition
        assert parsed.input_schema == SENSOR_SCHEMA


class TestAuditChainProperty:
    events = st.lists(
        st.tuples(
            st.sampled_from(["decision", "grant", "warning", "revocation"]),
            st.sampled_from(["u1", "u2", None]),
            st.sampled_from(["s1", "s2", None]),
        ),
        min_size=1,
        max_size=20,
    )

    @given(events)
    @settings(max_examples=100, deadline=None)
    def test_chain_verifies_and_survives_export(self, event_list):
        log = AuditLog()
        for kind, subject, resource in event_list:
            log.record(kind, subject, resource, note="x")
        assert log.verify_chain()
        assert AuditLog.import_json(log.export_json()).verify_chain()

    @given(events, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_single_mutation_detected(self, event_list, data):
        log = AuditLog()
        for kind, subject, resource in event_list:
            log.record(kind, subject, resource, note="x")
        index = data.draw(st.integers(min_value=0, max_value=len(log._entries) - 1))
        entry = log._entries[index]
        log._entries[index] = entry._replace(kind=entry.kind + "-forged")
        assert not log.verify_chain()


class TestDirectVsPepEquivalence:
    """The PEP-merged query and the equivalent direct StreamSQL script
    must produce byte-identical output streams."""

    @given(policy_graphs())
    @settings(max_examples=50, deadline=None)
    def test_same_output_both_paths(self, graph):
        from repro.core import XacmlPlusInstance, stream_policy
        from repro.streams.sources import WeatherSource
        from repro.streams.streamsql.generator import generate_streamsql
        from repro.xacml.request import Request

        instance = XacmlPlusInstance(allow_partial_results=True)
        instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
        instance.load_policy(stream_policy("p", "weather", graph, subject="u"))
        pep_result = instance.request_stream(Request.simple("u", "weather"))
        direct_handle = instance.engine.register_streamsql(
            generate_streamsql(graph)
        )
        records = WeatherSource(seed=11).records(120)
        instance.engine.push_batch("weather", records)
        pep_output = instance.engine.read(pep_result.handle)
        direct_output = instance.engine.read(direct_handle)
        assert [t.values for t in pep_output] == [t.values for t in direct_output]
