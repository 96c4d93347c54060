"""Tests for the stream-obligation vocabulary (Table 1 / Figure 2)."""

import pytest

from repro.core.obligations import (
    FILTER_OBLIGATION,
    MAP_OBLIGATION,
    WINDOW_OBLIGATION,
    graph_to_obligations,
    obligations_to_graph,
    stream_policy,
)
from repro.errors import ObligationError
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator, WindowSpec, WindowType
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.attributes import AttributeValue
from repro.xacml.request import Request
from repro.xacml.response import AttributeAssignment, Effect, Obligation
from tests.conftest import build_nea_policy_graph, window_obligation


class TestEncodeDecode:
    def test_nea_graph_round_trip(self):
        graph = build_nea_policy_graph()
        obligations = graph_to_obligations(graph)
        assert [o.obligation_id for o in obligations] == [
            FILTER_OBLIGATION, MAP_OBLIGATION, WINDOW_OBLIGATION,
        ]
        rebuilt = obligations_to_graph(obligations, "weather")
        assert [op.kind for op in rebuilt.operators] == ["filter", "map", "aggregate"]
        assert (
            rebuilt.filter_operator.condition.to_condition_string()
            == graph.filter_operator.condition.to_condition_string()
        )
        assert rebuilt.map_operator.attribute_set() == graph.map_operator.attribute_set()
        assert rebuilt.aggregate_operator.window == graph.aggregate_operator.window
        assert {s.key for s in rebuilt.aggregate_operator.aggregations} == {
            s.key for s in graph.aggregate_operator.aggregations
        }

    def test_partial_graph(self):
        graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        obligations = graph_to_obligations(graph)
        assert len(obligations) == 1
        rebuilt = obligations_to_graph(obligations, "weather")
        assert len(rebuilt) == 1

    def test_empty_graph_no_obligations(self):
        assert graph_to_obligations(QueryGraph("weather")) == []
        rebuilt = obligations_to_graph([], "weather")
        assert rebuilt.is_passthrough

    def test_canonical_order_regardless_of_input(self):
        graph = build_nea_policy_graph()
        obligations = list(reversed(graph_to_obligations(graph)))
        rebuilt = obligations_to_graph(obligations, "weather")
        assert [op.kind for op in rebuilt.operators] == ["filter", "map", "aggregate"]

    def test_table1_long_ids_accepted(self):
        obligation = Obligation(
            "exacml:obligation:stream-filtering",
            Effect.PERMIT,
            [AttributeAssignment(
                "exacml:obligation:stream-filter-condition-id",
                AttributeValue.string("rainrate > 5"),
            )],
        )
        graph = obligations_to_graph([obligation], "weather")
        assert graph.filter_operator is not None

    def test_unrelated_obligations_ignored(self):
        audit = Obligation("custom:audit", Effect.PERMIT)
        graph = obligations_to_graph([audit], "weather")
        assert graph.is_passthrough


class TestDecodeErrors:
    def test_duplicate_filter(self):
        obligations = graph_to_obligations(
            QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        ) * 2
        with pytest.raises(ObligationError):
            obligations_to_graph(obligations, "weather")

    def test_filter_without_condition(self):
        with pytest.raises(ObligationError):
            obligations_to_graph(
                [Obligation(FILTER_OBLIGATION, Effect.PERMIT)], "weather"
            )

    def test_map_without_attributes(self):
        with pytest.raises(ObligationError):
            obligations_to_graph(
                [Obligation(MAP_OBLIGATION, Effect.PERMIT)], "weather"
            )

    def test_window_missing_geometry(self):
        obligation = Obligation(
            WINDOW_OBLIGATION,
            Effect.PERMIT,
            [AttributeAssignment(
                "exacml:obligation:stream-window-attr-id",
                AttributeValue.string("rainrate:avg"),
            )],
        )
        with pytest.raises(ObligationError):
            obligations_to_graph([obligation], "weather")

    def test_window_without_aggregations(self):
        obligation = Obligation(
            WINDOW_OBLIGATION,
            Effect.PERMIT,
            [
                AttributeAssignment(
                    "exacml:obligation:stream-window-size-id",
                    AttributeValue.integer(5),
                ),
                AttributeAssignment(
                    "exacml:obligation:stream-window-step-id",
                    AttributeValue.integer(2),
                ),
                AttributeAssignment(
                    "exacml:obligation:stream-window-type-id",
                    AttributeValue.string("tuple"),
                ),
            ],
        )
        with pytest.raises(ObligationError):
            obligations_to_graph([obligation], "weather")


class TestWindowGeometryIsIntegral:
    """A fractional size would be truncated to a *finer* window than the
    policy states (2.9 → 2, ``True`` → 1 before the fix): refused."""

    @pytest.mark.parametrize("value", [2.9, True, "2.9", float("inf")])
    def test_non_integral_size_or_step_is_refused(self, value):
        for size, step in ((value, 1), (3, value)):
            with pytest.raises(ObligationError, match="bad window"):
                obligations_to_graph([window_obligation(size, step)], "weather")

    @pytest.mark.parametrize("value", [7, 7.0, "7"])
    def test_integral_spellings_decode_to_the_int(self, value):
        graph = obligations_to_graph([window_obligation(value, value)], "weather")
        window = graph.aggregate_operator.window
        assert (window.size, window.step) == (7, 7)
        assert type(window.size) is int and type(window.step) is int


class TestStreamPolicy:
    def test_policy_permits_subject(self):
        graph = build_nea_policy_graph()
        policy = stream_policy("p", "weather", graph, subject="LTA")
        from repro.xacml.response import Decision

        assert policy.evaluate(Request.simple("LTA", "weather")) is Decision.PERMIT
        assert (
            policy.evaluate(Request.simple("X", "weather"))
            is Decision.NOT_APPLICABLE
        )

    def test_policy_obligations_rebuild_graph(self):
        graph = build_nea_policy_graph()
        policy = stream_policy("p", "weather", graph)
        rebuilt = obligations_to_graph(policy.obligations, "weather")
        rebuilt.validate(WEATHER_SCHEMA)
        assert len(rebuilt) == 3


class TestObligationHash:
    """The PEP keys compiled grants by the obligation tuple, so an
    obligation's hash is asked for on every grant."""

    def test_hash_walks_the_assignments_once(self, monkeypatch):
        (obligation,) = graph_to_obligations(
            QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        )
        walks = []
        original = AttributeAssignment.__hash__
        monkeypatch.setattr(
            AttributeAssignment, "__hash__",
            lambda self: walks.append(self) or original(self),
        )
        assert hash(obligation) == hash(obligation) == hash(obligation)
        assert len(walks) == len(obligation.assignments) == 1

    def test_a_pickled_copy_rehashes_for_itself(self):
        """String hashes are salted per process: a worker's response
        must not bring the worker's hash along."""
        import pickle

        obligation = graph_to_obligations(build_nea_policy_graph())[-1]
        hash(obligation)
        copy = pickle.loads(pickle.dumps(obligation))
        assert copy == obligation and copy is not obligation
        assert copy._hash is None
        assert hash(copy) == hash(obligation)
