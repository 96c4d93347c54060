"""Tests for the Section 3.1 query-graph merge rules."""

import pytest

from repro.core.merge import MergeOptions, merge_query_graphs
from repro.errors import MergeError, WindowRefinementError
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
from tests.conftest import build_lta_user_query, build_nea_policy_graph


def merge(policy_graph, user_graph, **options):
    return merge_query_graphs(
        policy_graph, user_graph, schema=WEATHER_SCHEMA,
        options=MergeOptions(**options) if options else MergeOptions(),
    )


class TestPaperExample:
    """Figure 1 policy + Figure 4(a) user query → Figure 4(b) merged SQL."""

    def test_merged_structure(self):
        result = merge(
            build_nea_policy_graph(), build_lta_user_query().to_query_graph()
        )
        graph = result.graph
        assert [op.kind for op in graph.operators] == ["filter", "map", "aggregate"]
        # Filter simplification: rainrate>5 AND rainrate>50 → rainrate>50.
        assert graph.filter_operator.condition.to_condition_string() == "rainrate > 50"
        # Map keeps rainrate (intersection) + samplingtime (carrier).
        assert graph.map_operator.attribute_set() == {"rainrate", "samplingtime"}
        # Aggregation: user window, intersection of specs + time carrier.
        aggregate = graph.aggregate_operator
        assert aggregate.window == WindowSpec(WindowType.TUPLE, 10, 2)
        assert {s.to_obligation_value() for s in aggregate.aggregations} == {
            "samplingtime:lastval", "rainrate:avg",
        }

    def test_merged_graph_validates(self):
        result = merge(
            build_nea_policy_graph(), build_lta_user_query().to_query_graph()
        )
        out = result.graph.validate(WEATHER_SCHEMA)
        assert set(out.attribute_names) == {"lastvalsamplingtime", "avgrainrate"}

    def test_streamsql_matches_figure_4b(self):
        from repro.streams.streamsql.generator import generate_streamsql

        result = merge(
            build_nea_policy_graph(), build_lta_user_query().to_query_graph()
        )
        sql = generate_streamsql(result.graph)
        assert "WHERE rainrate > 50" in sql
        assert "SIZE 10 ADVANCE 2 TUPLES" in sql
        assert "lastval(samplingtime) AS lastvalsamplingtime" in sql
        assert "avg(rainrate) AS avgrainrate" in sql
        assert "windspeed" not in sql  # dropped: user did not ask for it


class TestFilterMerge:
    def test_conjunction(self):
        policy = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        user = QueryGraph("weather").append(FilterOperator("windspeed > 3"))
        result = merge(policy, user)
        condition = result.graph.filter_operator.condition.to_condition_string()
        assert "rainrate > 5" in condition and "windspeed > 3" in condition

    def test_simplification_example(self):
        """The paper's example: x>v1 AND x>v2 → x>v2 iff v2 >= v1."""
        policy = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        user = QueryGraph("weather").append(FilterOperator("rainrate > 50"))
        result = merge(policy, user)
        assert (
            result.graph.filter_operator.condition.to_condition_string()
            == "rainrate > 50"
        )

    def test_one_sided(self):
        policy = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        result = merge(policy, QueryGraph("weather"))
        assert (
            result.graph.filter_operator.condition.to_condition_string()
            == "rainrate > 5"
        )

    def test_different_streams_rejected(self):
        with pytest.raises(MergeError):
            merge(QueryGraph("weather"), QueryGraph("gps"))


class TestMapMerge:
    def test_intersection_default(self):
        policy = QueryGraph("weather").append(MapOperator(["rainrate", "windspeed"]))
        user = QueryGraph("weather").append(MapOperator(["windspeed", "humidity"]))
        result = merge(policy, user)
        assert result.graph.map_operator.attribute_set() == {"windspeed"}

    def test_union_reproduces_paper_text(self):
        policy = QueryGraph("weather").append(MapOperator(["rainrate", "windspeed"]))
        user = QueryGraph("weather").append(MapOperator(["windspeed", "humidity"]))
        result = merge(policy, user, map_semantics="union")
        assert result.graph.map_operator.attribute_set() == {
            "rainrate", "windspeed", "humidity",
        }

    def test_disjoint_projections_fail(self):
        policy = QueryGraph("weather").append(MapOperator(["rainrate"]))
        user = QueryGraph("weather").append(MapOperator(["humidity"]))
        with pytest.raises(MergeError):
            merge(policy, user)

    def test_unknown_semantics(self):
        policy = QueryGraph("weather").append(MapOperator(["rainrate"]))
        user = QueryGraph("weather").append(MapOperator(["rainrate"]))
        with pytest.raises(MergeError):
            merge(policy, user, map_semantics="xor")

    def test_user_narrowing_without_policy_map(self):
        user = QueryGraph("weather").append(MapOperator(["rainrate"]))
        result = merge(QueryGraph("weather"), user)
        assert result.graph.map_operator.attribute_set() == {"rainrate"}


class TestAggregateMerge:
    def policy_aggregate(self, size=5, step=2):
        return QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, size, step),
                [
                    AggregationSpec.parse("samplingtime:lastval"),
                    AggregationSpec.parse("rainrate:avg"),
                ],
            )
        )

    def user_aggregate(self, size=10, step=2, specs=("rainrate:avg",)):
        return QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, size, step),
                [AggregationSpec.parse(s) for s in specs],
            )
        )

    def test_user_window_geometry_wins(self):
        result = merge(self.policy_aggregate(), self.user_aggregate(size=12, step=3))
        assert result.graph.aggregate_operator.window == WindowSpec(
            WindowType.TUPLE, 12, 3
        )

    def test_smaller_user_window_rejected(self):
        with pytest.raises(WindowRefinementError):
            merge(self.policy_aggregate(size=5), self.user_aggregate(size=4))

    def test_smaller_user_step_rejected(self):
        with pytest.raises(WindowRefinementError):
            merge(self.policy_aggregate(step=2), self.user_aggregate(step=1))

    def test_type_mismatch_rejected(self):
        user = QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TIME, 10, 2),
                [AggregationSpec.parse("rainrate:avg")],
            )
        )
        with pytest.raises(WindowRefinementError):
            merge(self.policy_aggregate(), user)

    def test_intersection_of_specs(self):
        result = merge(
            self.policy_aggregate(),
            self.user_aggregate(specs=("rainrate:avg", "windspeed:max")),
        )
        keys = {s.to_obligation_value()
                for s in result.graph.aggregate_operator.aggregations}
        # windspeed:max is not permitted by policy → dropped; the time
        # carrier samplingtime:lastval is kept.
        assert keys == {"samplingtime:lastval", "rainrate:avg"}

    def test_empty_intersection_fails(self):
        policy = QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 5, 2),
                [AggregationSpec.parse("rainrate:avg")],
            )
        )
        with pytest.raises(MergeError):
            merge(policy, self.user_aggregate(specs=("rainrate:max",)))

    def test_policy_only_aggregate_kept(self):
        result = merge(self.policy_aggregate(), QueryGraph("weather"))
        assert result.graph.aggregate_operator.window.size == 5

    def test_user_only_aggregate_kept(self):
        result = merge(QueryGraph("weather"), self.user_aggregate())
        assert result.graph.aggregate_operator.window.size == 10


class TestPassthroughMerge:
    def test_both_empty(self):
        result = merge(QueryGraph("weather"), QueryGraph("weather"))
        assert result.graph.is_passthrough
        assert result.warnings == []
