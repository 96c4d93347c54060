"""Property-based tests for merging, the attack arithmetic and the StreamSQL round trip."""

from hypothesis import assume, given, settings, strategies as st

from repro.core.attack import reconstruct_from_windows
from repro.core.merge import merge_query_graphs
from repro.errors import MergeError
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
from repro.streams.schema import DataType, Field, Schema
from repro.streams.streamsql.generator import generate_streamsql
from repro.streams.streamsql.parser import parse_streamsql
from repro.streams.tuples import make_tuple
from tests.conftest import engine_outputs

SCHEMA = Schema(
    "s",
    [
        Field("t", DataType.TIMESTAMP),
        Field("x", DataType.DOUBLE),
        Field("y", DataType.DOUBLE),
    ],
)


def run_graph(graph, values):
    """What ``StreamEngine()`` emits for *graph* over *values* (x; t and
    y derived).  That it equals the oracle's is the streams harness's
    question (``test_streams_equivalence``); here it is the input."""
    tuples = [
        make_tuple(SCHEMA, {"t": float(index), "x": value, "y": -value})
        for index, value in enumerate(values)
    ]
    return engine_outputs(StreamEngine(), graph, SCHEMA, [tuples])


class TestAttackProperty:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=10, max_size=80),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_exact(self, values, base_size, step):
        """Sum windows of sizes N..N+M with step M recover a_N..exactly."""
        streams = []
        for extra in range(step + 1):
            size = base_size + extra
            window_sums = []
            k = 0
            while k * step + size <= len(values):
                window_sums.append(sum(values[k * step: k * step + size]))
                k += 1
            streams.append(window_sums)
        recovered = reconstruct_from_windows(streams, base_size, step)
        for index, value in recovered.items():
            assert value == values[index]
        if len(values) >= base_size + step + 1:
            # At least one tuple beyond the first N is always recoverable.
            assert recovered


class TestMergeProperties:
    policy_filters = st.sampled_from(["x > 0", "x < 50", "x >= 10", "TRUE"])
    user_filters = st.sampled_from(["x > 20", "x <= 40", "x != 30", "TRUE"])

    @given(
        policy_filters,
        user_filters,
        st.lists(st.integers(min_value=-20, max_value=70), max_size=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_merged_filter_equals_both(self, policy_text, user_text, values):
        """Soundness: merged output = tuples passing policy AND user."""
        policy = QueryGraph("s").append(FilterOperator(policy_text))
        user = QueryGraph("s").append(FilterOperator(user_text))
        merged = merge_query_graphs(policy, user, schema=SCHEMA).graph
        got = [t["x"] for t in run_graph(merged, values)]
        oracle_policy = run_graph(QueryGraph("s").append(FilterOperator(policy_text)), values)
        expected = [
            t["x"]
            for t in run_graph(QueryGraph("s").append(FilterOperator(user_text)), values)
            if t in oracle_policy
        ]
        # Order-preserving comparison via sequences of x values.
        policy_set = {t["x"] for t in oracle_policy}
        expected = [x for x in expected if x in policy_set]
        assert got == expected

    @given(
        st.lists(st.sampled_from(["t", "x", "y"]), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(["t", "x", "y"]), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_map_merge_never_widens_policy(self, policy_attrs, user_attrs):
        """Safe-mode invariant: merged projection ⊆ policy projection."""
        policy = QueryGraph("s").append(MapOperator(policy_attrs))
        user = QueryGraph("s").append(MapOperator(user_attrs))
        try:
            merged = merge_query_graphs(policy, user, schema=SCHEMA).graph
        except MergeError:
            assume(False)  # disjoint projections: correctly rejected
        merged_set = merged.map_operator.attribute_set()
        assert merged_set <= set(a.lower() for a in policy_attrs)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_merge_never_finer(self, size, step, extra_size, extra_step):
        """The merged window is never finer-grained than the policy's."""
        policy = QueryGraph("s").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, size, step),
                [AggregationSpec.parse("x:sum")],
            )
        )
        user = QueryGraph("s").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, size + extra_size, step + extra_step),
                [AggregationSpec.parse("x:sum")],
            )
        )
        merged = merge_query_graphs(policy, user, schema=SCHEMA).graph
        window = merged.aggregate_operator.window
        assert window.size >= size
        assert window.step >= step


class TestStreamSqlRoundTripProperty:
    conditions = st.sampled_from(
        ["x > 1", "x <= 2 AND y > 0", "x != 3 OR y < 1", None]
    )
    maps = st.sampled_from([("x",), ("t", "x"), ("t", "x", "y"), None])
    windows = st.sampled_from([(4, 2), (10, 10), (3, 5), None])

    @given(conditions, maps, windows)
    @settings(max_examples=150, deadline=None)
    def test_generate_parse_identity(self, condition, map_attrs, window):
        graph = QueryGraph("s")
        if condition:
            graph.append(FilterOperator(condition))
        if map_attrs:
            graph.append(MapOperator(list(map_attrs)))
        if window:
            graph.append(
                AggregateOperator(
                    WindowSpec(WindowType.TUPLE, window[0], window[1]),
                    [AggregationSpec.parse("x:sum")],
                )
            )
        assume(map_attrs is None or "x" in map_attrs or window is None)
        graph.validate(SCHEMA)
        sql = generate_streamsql(graph, SCHEMA)
        parsed = parse_streamsql(sql)
        values = list(range(20))
        assert [t.values for t in run_graph(parsed.graph, values)] == [
            t.values for t in run_graph(graph, values)
        ]
