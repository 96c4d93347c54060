"""Tests for the aggregate-function registry and what a window output promises."""

import math
import random

import pytest

from repro.errors import StreamError
from repro.streams.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateFunction,
    get_aggregate_function,
    register_aggregate_function,
)
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple
from tests.conftest import bound


class TestLookup:
    def test_known_functions_present(self):
        for name in ("avg", "sum", "min", "max", "count", "lastval",
                     "firstval", "median", "stdev"):
            assert get_aggregate_function(name).name == name

    def test_paper_spelling_aliases(self):
        assert get_aggregate_function("LastValue").name == "lastval"
        assert get_aggregate_function("FirstValue").name == "firstval"
        assert get_aggregate_function("Average").name == "avg"

    def test_unknown_raises(self):
        with pytest.raises(StreamError):
            get_aggregate_function("mode")


class TestComputation:
    values = [4, 1, 3, 2]

    def test_avg(self):
        assert get_aggregate_function("avg").compute(self.values) == 2.5

    def test_sum(self):
        assert get_aggregate_function("sum").compute(self.values) == 10

    def test_min_max(self):
        assert get_aggregate_function("min").compute(self.values) == 1
        assert get_aggregate_function("max").compute(self.values) == 4

    def test_count(self):
        assert get_aggregate_function("count").compute(self.values) == 4

    def test_first_last(self):
        assert get_aggregate_function("firstval").compute(self.values) == 4
        assert get_aggregate_function("lastval").compute(self.values) == 2

    def test_median_even_odd(self):
        assert get_aggregate_function("median").compute([1, 2, 3, 4]) == 2.5
        assert get_aggregate_function("median").compute([3, 1, 2]) == 2

    def test_stdev(self):
        result = get_aggregate_function("stdev").compute([2, 4, 4, 4, 5, 5, 7, 9])
        assert math.isclose(result, 2.138, rel_tol=1e-3)

    def test_stdev_single_value(self):
        assert get_aggregate_function("stdev").compute([5]) == 0.0

    def test_empty_window_raises(self):
        with pytest.raises(StreamError):
            get_aggregate_function("avg").compute([])


class TestResultTypes:
    def test_avg_always_double(self):
        field = get_aggregate_function("avg").result_field(Field("x", "int"))
        assert field.dtype is DataType.DOUBLE
        assert field.name == "avgx"

    def test_count_always_int(self):
        field = get_aggregate_function("count").result_field(Field("x", "string"))
        assert field.dtype is DataType.INT

    def test_min_preserves(self):
        field = get_aggregate_function("min").result_field(Field("x", "timestamp"))
        assert field.dtype is DataType.TIMESTAMP

    def test_sum_of_int_is_int(self):
        assert get_aggregate_function("sum").result_field(Field("x", "int")).dtype is DataType.INT

    def test_sum_of_timestamp_widens(self):
        assert (
            get_aggregate_function("sum").result_field(Field("x", "timestamp")).dtype
            is DataType.DOUBLE
        )

    def test_numeric_required(self):
        with pytest.raises(StreamError):
            get_aggregate_function("avg").result_field(Field("x", "string"))

    def test_lastval_works_on_strings(self):
        field = get_aggregate_function("lastval").result_field(Field("x", "string"))
        assert field.dtype is DataType.STRING


class TestRegistration:
    def test_custom_function(self):
        register_aggregate_function(
            AggregateFunction("range", lambda v: max(v) - min(v), lambda d: d)
        )
        try:
            assert get_aggregate_function("range").compute([1, 5, 3]) == 4
        finally:
            AGGREGATE_FUNCTIONS.pop("range", None)


class TestWelfordStdev:
    """The module-level _stdev is Welford single-pass; it must agree
    with the two-pass textbook formula and stay stable for large means."""

    def two_pass(self, values):
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            return 0.0
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))

    def test_matches_two_pass(self):
        rng = random.Random(3)
        for _ in range(50):
            values = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 30))]
            got = get_aggregate_function("stdev").compute(values)
            assert math.isclose(got, self.two_pass(values), rel_tol=1e-9, abs_tol=1e-9)

    def test_large_mean_stability(self):
        """Catastrophic-cancellation regime: huge mean, tiny variance.
        Welford keeps full precision where naive E[x²]−E[x]² collapses."""
        base = 1e9
        values = [base + offset for offset in (0.0, 1.0, 2.0, 3.0)]
        got = get_aggregate_function("stdev").compute(values)
        expected = self.two_pass([0.0, 1.0, 2.0, 3.0])
        assert math.isclose(got, expected, rel_tol=1e-6)

    #: input → ``float.hex()`` of its stdev, recorded by running the
    #: commit *before* ``_stdev`` became a plain loop: no output moved.
    GOLDEN = [
        ([5], "0x0.0p+0"),
        ([5.5], "0x0.0p+0"),
        ([2, 4, 4, 4, 5, 5, 7, 9], "0x1.11acee560242ap+1"),
        ([3.7, -12.1, 8.88, 0.003], "0x1.1d8ec526502bep+3"),
        ([0.1, 0.2, 0.3], "0x1.9999999999998p-4"),
        ([-50.0, 49.875, 12.125, -0.125, 7.0], "0x1.1e005033839d1p+5"),
        ([10, -3, 7, 7, 0, 100], "0x1.3b4d5bdf1d5edp+5"),
        ([4.2, 4.2, 4.2, 4.2], "0x0.0p+0"),
        ([1519.9169921875] * 6, "0x0.0p+0"),
        ([2, 2.0, 2, 2.0], "0x0.0p+0"),
        # A constant run that breaks.
        ([7.5, 7.5, 7.5, 1.25, -3.0], "0x1.34edb0413cf2dp+2"),
        ([7, 7, 7, 8], "0x1.0000000000000p-1"),
        # Large means.
        ([1e9, 1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0], "0x1.4a7e9cb8a3491p+0"),
        ([1e9 + 0.1, 1e9 + 0.1, 1e9 + 0.3], "0x1.d8f71a170a8b2p-4"),
        ([1e16, 1.0, 1.0, 1.0], "0x1.1c37937e08000p+52"),
        ([2**53 + 1, 2**53 + 1, 2**53 + 3], "0x1.0000000000000p+1"),
        ([0.1, 1e8, -3.5, 1e8, 0.1], "0x1.a1e1102d2f7a9p+25"),
    ]

    @pytest.mark.parametrize("values,expected", GOLDEN)
    def test_golden_table(self, values, expected):
        assert get_aggregate_function("stdev").compute(values).hex() == expected


#: A DOUBLE and an INT column; tuples are built directly, so an int
#: placed in the DOUBLE column stays an int.
WINDOW_SCHEMA = Schema("w", [Field("x", DataType.DOUBLE), Field("i", DataType.INT)])


def window_outputs(aggregation, rows):
    """Column *aggregation* of a size-4 step-1 tuple window over *rows*."""
    operator = AggregateOperator(
        WindowSpec(WindowType.TUPLE, 4, 1), [AggregationSpec.parse(aggregation)]
    )
    emitted = bound(operator, WINDOW_SCHEMA)([StreamTuple(WINDOW_SCHEMA, row) for row in rows])
    return [tup.values[0] for tup in emitted]


class TestSlidingWindowOutputs:
    """What a window *output* promises once values have slid out of it:
    no residue of a departed value — an exact 0.0 stdev over a window
    gone constant (the ~8e-7 the PR 4 fuzzer caught), exact sums after
    an outlier, int sums that stay ints."""

    def stdevs(self, values):
        return window_outputs("x:stdev", [(value, 0) for value in values])

    def test_window_going_constant_is_exactly_zero(self):
        prefix = [3.7, -12.1, 8.88, 0.003]
        results = self.stdevs(prefix + [4.2] * 12)
        # results[k] covers values[k:k+4]: fully constant from k=4 on.
        assert results[len(prefix):] == [0.0] * 9
        assert all(result > 0.0 for result in results[:len(prefix)])

    def test_equal_timestamp_regression_shape(self):
        assert self.stdevs([1519.9169921875] * 12) == [0.0] * 9

    def test_mixed_int_float_equal_values_are_constant(self):
        assert self.stdevs([2, 2.0, 2, 2.0, 2, 2.0]) == [0.0, 0.0, 0.0]

    def test_stdev_never_negative(self):
        rng = random.Random(11)
        values = [rng.choice((0.1, 1e8, -3.5, 1e8, 0.1)) for _ in range(2000)]
        assert all(result >= 0.0 for result in self.stdevs(values))

    def test_constant_then_varied_is_the_window_recompute(self):
        values = [7.5] * 6 + [1.25, -3.0, 9.75, 7.5, 7.5, 2.0]
        recompute = get_aggregate_function("stdev").compute
        assert self.stdevs(values) == [
            recompute(values[start:start + 4]) for start in range(len(values) - 3)
        ]

    @pytest.mark.parametrize("aggregation,expected", [("x:sum", 4.0), ("x:avg", 1.0)])
    def test_sum_avg_exact_after_large_outlier_slid_out(self, aggregation, expected):
        rows = [(value, 0) for value in (1e16, 1.0, 1.0, 1.0, 1.0, 1.0)]
        assert window_outputs(aggregation, rows)[1:] == [expected, expected]

    def test_int_sum_stays_exact_int(self):
        rows = [(0.0, value) for value in (10**18, 3, -(10**18), 5, 7)]
        sums = window_outputs("i:sum", rows)
        assert sums == [8, 15 - 10**18]
        assert all(type(total) is int for total in sums)
