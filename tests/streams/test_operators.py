"""Tests for filter, map and window-aggregation boxes."""

import pytest

from repro.errors import SchemaError, StreamError, UnknownAttributeError
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import DataType, Schema
from repro.streams.tuples import make_tuple
from tests.conftest import bound, oracle

SCHEMA = Schema("s", [("t", "timestamp"), ("x", "double"), ("tag", "string")])


def tuples(*values):
    return [
        make_tuple(SCHEMA, {"t": float(i), "x": float(v), "tag": "a"})
        for i, v in enumerate(values)
    ]


def run(operator, schema, tuples_in):
    """One bind of *operator*, fed one tuple per batch."""
    process = bound(operator, schema)
    outputs = []
    for tup in tuples_in:
        outputs.extend(process([tup]))
    return operator.output_schema(schema), outputs


class TestFilterOperator:
    def test_passes_matching(self):
        _, outputs = run(FilterOperator("x > 2"), SCHEMA, tuples(1, 3, 2, 5))
        assert [t["x"] for t in outputs] == [3, 5]

    def test_schema_unchanged(self):
        schema, _ = run(FilterOperator("x > 2"), SCHEMA, [])
        assert schema == SCHEMA

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            FilterOperator("zz > 2").output_schema(SCHEMA)

    def test_type_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            FilterOperator("tag > 2").output_schema(SCHEMA)
        with pytest.raises(SchemaError):
            FilterOperator("x = 'abc'").output_schema(SCHEMA)

    def test_validation_errors_name_the_first_attribute_alphabetically(self):
        """One pass over the leaves, in attribute order: texts and the
        choice among several bad leaves are what they always were."""
        schema = Schema("b", [("flag", "bool"), ("tag", "string"), ("x", "double")])
        cases = {
            "x = 'abc' AND tag > 2": "filter compares string attribute 'tag' "
            "with numeric literal 2",
            "x = 'abc'": "filter compares double attribute 'x' "
            "with string literal 'abc'",
            "x > 1 AND flag = 1": "filter conditions on boolean attribute 'flag' "
            "are not supported; compare against 0/1 integers instead",
            "flag = 'y'": "filter compares bool attribute 'flag' "
            "with string literal 'y'",
        }
        for condition, message in cases.items():
            with pytest.raises(SchemaError) as raised:
                FilterOperator(condition).output_schema(schema)
            assert str(raised.value) == message
        with pytest.raises(UnknownAttributeError, match="aa"):
            FilterOperator("zz > 1 OR x = 'abc' OR aa > 2").output_schema(schema)

    def test_string_filter(self):
        operator = FilterOperator("tag = 'a'")
        _, outputs = run(operator, SCHEMA, tuples(1, 2))
        assert len(outputs) == 2


class TestMapOperator:
    def test_projection(self):
        schema, outputs = run(MapOperator(["x"]), SCHEMA, tuples(1, 2))
        assert schema.attribute_names == ("x",)
        assert [t["x"] for t in outputs] == [1, 2]

    def test_order_follows_schema(self):
        schema, _ = run(MapOperator(["x", "t"]), SCHEMA, [])
        assert schema.attribute_names == ("t", "x")

    def test_case_insensitive_dedupe(self):
        operator = MapOperator(["X", "x", "t"])
        assert operator.attributes == ("X", "t")

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            MapOperator([])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            MapOperator(["zz"]).output_schema(SCHEMA)


class TestAggregationSpec:
    def test_parse_colon_form(self):
        spec = AggregationSpec.parse("rainrate:avg")
        assert spec.attribute == "rainrate"
        assert spec.function.name == "avg"

    def test_parse_call_form(self):
        spec = AggregationSpec.parse("avg(RainRate)")
        assert spec.attribute == "rainrate"
        assert spec.function.name == "avg"

    def test_round_trip(self):
        spec = AggregationSpec.parse("max(windspeed)")
        assert spec.to_obligation_value() == "windspeed:max"
        assert spec.to_call_syntax() == "max(windspeed)"

    def test_malformed(self):
        with pytest.raises(StreamError):
            AggregationSpec.parse("justaname")
        with pytest.raises(StreamError):
            AggregationSpec.parse(":avg")


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(StreamError):
            WindowSpec(WindowType.TUPLE, 0, 1)
        with pytest.raises(StreamError):
            WindowSpec(WindowType.TUPLE, 5, 0)

    def test_refines(self):
        policy = WindowSpec(WindowType.TUPLE, 5, 2)
        assert WindowSpec(WindowType.TUPLE, 5, 2).refines(policy)
        assert WindowSpec(WindowType.TUPLE, 10, 2).refines(policy)
        assert not WindowSpec(WindowType.TUPLE, 4, 2).refines(policy)
        assert not WindowSpec(WindowType.TUPLE, 5, 1).refines(policy)
        assert not WindowSpec(WindowType.TIME, 5, 2).refines(policy)

    def test_window_type_parse(self):
        assert WindowType.parse("TUPLES") is WindowType.TUPLE
        assert WindowType.parse("seconds") is WindowType.TIME
        with pytest.raises(StreamError):
            WindowType.parse("rows")


class TestTupleWindows:
    def test_size3_step2(self):
        """Example 2's geometry: sums over (a0..a2), (a2..a4), ..."""
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 3, 2), [AggregationSpec.parse("x:sum")]
        )
        _, outputs = run(operator, SCHEMA, tuples(0, 1, 2, 3, 4, 5, 6))
        assert [t["sumx"] for t in outputs] == [0 + 1 + 2, 2 + 3 + 4, 4 + 5 + 6]

    def test_size5_step2_counts(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 5, 2), [AggregationSpec.parse("x:avg")]
        )
        _, outputs = run(operator, SCHEMA, tuples(*range(11)))
        # Windows end at tuples 5, 7, 9, 11 → positions 4, 6, 8, 10.
        assert len(outputs) == 4
        assert outputs[0]["avgx"] == 2.0

    def test_step_larger_than_size(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 3), [AggregationSpec.parse("x:sum")]
        )
        _, outputs = run(operator, SCHEMA, tuples(*range(8)))
        assert [t["sumx"] for t in outputs] == [0 + 1, 3 + 4, 6 + 7]

    def test_multiple_aggregations(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 3, 3),
            [AggregationSpec.parse("x:min"), AggregationSpec.parse("x:max"),
             AggregationSpec.parse("t:lastval")],
        )
        schema, outputs = run(operator, SCHEMA, tuples(5, 1, 3))
        assert schema.attribute_names == ("minx", "maxx", "lastvalt")
        assert outputs[0].values == (1.0, 5.0, 2.0)

    def test_duplicate_specs_deduplicated(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 2),
            [AggregationSpec.parse("x:avg"), AggregationSpec.parse("avg(x)")],
        )
        assert len(operator.aggregations) == 1

    def test_no_aggregations_rejected(self):
        with pytest.raises(StreamError):
            AggregateOperator(WindowSpec(WindowType.TUPLE, 2, 2), [])

    def test_every_bind_starts_from_an_empty_window(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 2), [AggregationSpec.parse("x:sum")]
        )
        _, outputs = run(operator, SCHEMA, tuples(1, 2))
        assert len(outputs) == 1
        _, outputs = run(operator, SCHEMA, tuples(3))
        assert outputs == []  # a bind of its own: window not yet full

    def test_one_declaration_bound_to_two_schemas_coerces_per_bind(self):
        """``x:sum`` over ``x:int`` emits ints, over ``x:double``
        doubles, from the same declaration, in either order, interleaved.
        Before PR 24 the spelling of this — ``process_batch(batch_A, out_A)``
        then ``process_batch(batch_B, out_B)`` on one operator — kept the
        first output schema's ``widen`` after rebinding positions and
        raised ``SchemaError: value 4.0 (float) is not valid for data
        type 'int'`` on this very input."""
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 2), [AggregationSpec.parse("x:sum")]
        )
        ints = Schema("a", [("x", "int")])
        doubles = Schema("b", [("x", "double")])
        as_int, as_double = bound(operator, ints), bound(operator, doubles)
        outputs = []
        for value in (1, 3, 5, 7):
            outputs.append((
                [t.values for t in as_int([make_tuple(ints, {"x": value})])],
                [t.values for t in as_double([make_tuple(doubles, {"x": value + 0.5})])],
            ))
        assert outputs == [([], []), ([(4,)], [(5.0,)]), ([], []), ([(12,)], [(13.0,)])]
        emitted = as_double([make_tuple(doubles, {"x": 1.5})] * 2)[0]
        assert emitted.schema.field("sumx").dtype is DataType.DOUBLE
        assert type(as_int([make_tuple(ints, {"x": 2})] * 2)[0].values[0]) is int


class TestColumnarWindows:
    """Columnar-path specifics: agreement with the oracle, recompute
    fallback, state reset, gaps, and out-of-order time windows."""

    def overlapping_operator(self):
        return AggregateOperator(
            WindowSpec(WindowType.TUPLE, 4, 1),
            [AggregationSpec.parse("x:avg"), AggregationSpec.parse("x:min"),
             AggregationSpec.parse("x:lastval")],
        )

    def test_oracle_matches_columnar(self):
        stream = tuples(5, 1, 4, 1, 5, 9, 2, 6)
        _, compiled_out = run(self.overlapping_operator(), SCHEMA, stream)
        _, reference_out = run(oracle(self.overlapping_operator()), SCHEMA, stream)
        assert [t.values for t in compiled_out] == [t.values for t in reference_out]

    def test_median_over_an_overlapping_window(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 3, 1),
            [AggregationSpec.parse("x:median"), AggregationSpec.parse("x:count")],
        )
        _, outputs = run(operator, SCHEMA, tuples(5, 1, 4, 2, 8))
        assert [t["medianx"] for t in outputs] == [4.0, 2.0, 4.0]
        assert all(t["countx"] == 3 for t in outputs)

    def test_gap_windows(self):
        """step > size leaves gaps; shares the sweep with step < size."""
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 5), [AggregationSpec.parse("x:max")]
        )
        _, outputs = run(operator, SCHEMA, tuples(*range(14)))
        assert [t["maxx"] for t in outputs] == [1.0, 6.0, 11.0]

    def test_one_batch_and_singleton_batches_identical(self):
        operator = self.overlapping_operator()
        batch_out = bound(operator, SCHEMA)(tuples(3, 1, 4, 1, 5, 9, 2))
        _, single_out = run(operator, SCHEMA, tuples(3, 1, 4, 1, 5, 9, 2))
        assert [t.values for t in batch_out] == [t.values for t in single_out]

    def test_out_of_order_time_window_matches_reference(self):
        """Late timestamps mid-stream land in their windows by value;
        output must still match the seed row path."""
        stamps = [(0.0, 1), (5.0, 2), (3.0, 7), (11.0, 4), (2.0, 9), (24.0, 5)]
        outputs = {}
        for mode, side in (("columnar", lambda op: op), ("reference", oracle)):
            operator = side(AggregateOperator(
                WindowSpec(WindowType.TIME, 10, 5),
                [AggregationSpec.parse("x:sum"), AggregationSpec.parse("x:firstval")],
            ))
            tuples_in = [
                make_tuple(SCHEMA, {"t": t, "x": float(x), "tag": "a"})
                for t, x in stamps
            ]
            _, outputs[mode] = run(operator, SCHEMA, tuples_in)
        assert [t.values for t in outputs["columnar"]] == [
            t.values for t in outputs["reference"]
        ]

    def test_outlier_eviction_recovers_exactly(self):
        """Once a 1e16 outlier has slid out, the small-value sums are
        exact — a running total would have absorbed them and report 0.0
        forever after; a per-window recompute never sees the outlier."""
        values = [1e16, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0]
        expected_post_outlier = [(3.0, 1.0), (4.0, 4.0 / 3.0), (6.0, 2.0)]
        for feed in ("per_tuple", "whole_batch"):
            outputs = {}
            for mode, side in (("columnar", lambda op: op), ("reference", oracle)):
                operator = side(AggregateOperator(
                    WindowSpec(WindowType.TUPLE, 3, 1),
                    [AggregationSpec.parse("x:sum"), AggregationSpec.parse("x:avg")],
                ))
                if feed == "per_tuple":
                    _, outputs[mode] = run(operator, SCHEMA, tuples(*values))
                else:
                    outputs[mode] = bound(operator, SCHEMA)(tuples(*values))
            # Windows after the outlier left: [1,1,1], [1,1,2], [1,2,3].
            post_outlier = [t.values for t in outputs["columnar"]][2:]
            assert post_outlier == expected_post_outlier, feed
            assert [t.values for t in outputs["columnar"]] == [
                t.values for t in outputs["reference"]
            ]

    def test_long_stream_buffer_stays_bounded(self):
        """The columnar ring buffer must trim its dead prefix."""
        operator = AggregateOperator(
            WindowSpec(WindowType.TUPLE, 8, 2), [AggregationSpec.parse("x:sum")]
        )
        process = bound(operator, SCHEMA)
        for chunk_start in range(0, 400, 16):
            process(tuples(*range(chunk_start, chunk_start + 16)))
        buffered = len(process.__self__.cols[0])
        assert buffered <= 8 + 16  # window tail + at most one batch


class TestTimeWindows:
    def test_time_window_basic(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TIME, 10, 10), [AggregationSpec.parse("x:sum")]
        )
        tuples_in = [
            make_tuple(SCHEMA, {"t": t, "x": x, "tag": "a"})
            for t, x in [(0.0, 1), (5.0, 2), (9.9, 3), (10.0, 4), (19.0, 5), (25.0, 6)]
        ]
        _, outputs = run(operator, SCHEMA, tuples_in)
        # Window [0,10) → 1+2+3; window [10,20) closes when t=25 arrives.
        assert [t["sumx"] for t in outputs] == [6.0, 9.0]

    def test_sliding_time_window(self):
        operator = AggregateOperator(
            WindowSpec(WindowType.TIME, 10, 5), [AggregationSpec.parse("x:count")]
        )
        tuples_in = [
            make_tuple(SCHEMA, {"t": float(t), "x": 1.0, "tag": "a"})
            for t in range(0, 30, 2)
        ]
        _, outputs = run(operator, SCHEMA, tuples_in)
        assert all(t["countx"] == 5 for t in outputs)

    def test_requires_time_attribute(self):
        schema = Schema("s2", [("x", "double")])
        operator = AggregateOperator(
            WindowSpec(WindowType.TIME, 10, 5), [AggregationSpec.parse("x:sum")]
        )
        with pytest.raises(SchemaError):
            operator.output_schema(schema)

    def test_explicit_time_attribute(self):
        schema = Schema("s2", [("tick", "int"), ("x", "double")])
        operator = AggregateOperator(
            WindowSpec(WindowType.TIME, 4, 4),
            [AggregationSpec.parse("x:sum")],
            time_attribute="tick",
        )
        _, outputs = run(
            operator,
            schema,
            [make_tuple(schema, {"tick": tick, "x": 1.0}) for tick in range(9)],
        )
        assert [t["sumx"] for t in outputs] == [4.0, 4.0]
