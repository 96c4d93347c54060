"""Tests for query graphs."""

import pytest

from repro.errors import GraphError, SchemaError
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.tuples import make_tuple
from tests.conftest import build_nea_policy_graph, production_and_oracle


def weather_tuple(rainrate, t=0.0, windspeed=1.0):
    return make_tuple(
        WEATHER_SCHEMA,
        {
            "samplingtime": t, "temperature": 30.0, "humidity": 70.0,
            "solarradiation": 100.0, "rainrate": rainrate,
            "windspeed": windspeed, "winddirection": 0, "barometer": 1010.0,
        },
    )


class TestConstruction:
    def test_append_chaining(self):
        graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        assert len(graph) == 1
        assert not graph.is_passthrough

    def test_needs_source(self):
        with pytest.raises(GraphError):
            QueryGraph("")

    def test_append_rejects_non_operator(self):
        with pytest.raises(GraphError):
            QueryGraph("weather").append("not an operator")

    def test_single_accessors(self):
        graph = build_nea_policy_graph()
        assert graph.filter_operator is not None
        assert graph.map_operator is not None
        assert graph.aggregate_operator is not None

    def test_single_raises_on_duplicates(self):
        graph = QueryGraph("weather")
        graph.append(FilterOperator("rainrate > 5"))
        graph.append(FilterOperator("windspeed > 1"))
        with pytest.raises(GraphError):
            graph.filter_operator


class TestValidation:
    def test_nea_graph_output_schema(self):
        graph = build_nea_policy_graph()
        out = graph.validate(WEATHER_SCHEMA)
        assert out.attribute_names == (
            "lastvalsamplingtime", "avgrainrate", "maxwindspeed",
        )

    def test_schema_trace(self):
        graph = build_nea_policy_graph()
        trace = graph.schema_trace(WEATHER_SCHEMA)
        assert len(trace) == 4
        assert trace[0] == WEATHER_SCHEMA
        assert trace[1] == WEATHER_SCHEMA  # filter preserves
        assert trace[2].attribute_names == ("samplingtime", "rainrate", "windspeed")

    def test_aggregate_after_dropping_attribute_fails(self):
        graph = QueryGraph("weather")
        graph.append(MapOperator(["samplingtime"]))
        graph.append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 2, 2),
                [AggregationSpec.parse("rainrate:avg")],
            )
        )
        with pytest.raises(SchemaError):
            graph.validate(WEATHER_SCHEMA)


class TestExecution:
    """A graph runs by being registered: ``StreamEngine()`` fed batches
    against ``StreamEngine.reference()`` fed tuple-at-a-time."""

    def run(self, graph, tuples, batches=None):
        got, expected = production_and_oracle(
            graph, WEATHER_SCHEMA, batches or [[tup] for tup in tuples]
        )
        assert got == expected
        return got

    def test_chain_execution(self):
        # 12 rainy tuples: windows of 5 advance 2 → outputs at 5,7,9,11.
        tuples = [weather_tuple(10.0 + i, t=float(i)) for i in range(12)]
        outputs = self.run(build_nea_policy_graph(), tuples)
        assert len(outputs) == 4
        assert outputs[0]["avgrainrate"] == pytest.approx(12.0)

    def test_filtered_out_tuples_do_not_feed_window(self):
        graph = QueryGraph("weather")
        graph.append(FilterOperator("rainrate > 5"))
        graph.append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 2, 2),
                [AggregationSpec.parse("rainrate:sum")],
            )
        )
        tuples = [weather_tuple(rainrate) for rainrate in (10, 1, 1, 20)]
        outputs = self.run(graph, tuples)  # only 10 and 20 pass
        assert [t["sumrainrate"] for t in outputs] == [30.0]

    def test_one_batch(self):
        graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        tuples = [weather_tuple(1), weather_tuple(9)]
        assert len(self.run(graph, tuples, batches=[tuples])) == 1

    @pytest.mark.parametrize("build", [StreamEngine, StreamEngine.reference])
    def test_registrations_do_not_share_window_state(self, build):
        """One declaration registered twice: the late twin starts from
        an empty window of its own."""
        graph = QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 2, 2),
                [AggregationSpec.parse("rainrate:sum")],
            )
        )
        engine = build()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        first = engine.register_query(graph)
        engine.push("weather", weather_tuple(1))
        second = engine.register_query(graph)
        engine.push("weather", weather_tuple(2))
        assert [t["sumrainrate"] for t in engine.read(first)] == [3.0]
        assert engine.read(second) == []  # own window state

    def test_describe_mentions_operators(self):
        description = build_nea_policy_graph().describe()
        assert "rainrate > 5" in description
        assert "avg(rainrate)" in description
