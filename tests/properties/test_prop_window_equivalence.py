"""Differential tests: columnar window aggregation ≡ seed.

The columnar path (per-attribute ring buffers, one ``compute`` per
aggregation over the window's column slice), run the way production
runs it — a query registered on ``StreamEngine()`` and fed batches —
must be output-equivalent to the seed row-oriented
recompute-per-window path (the oracle, ``StreamEngine.reference()``,
fed the same tuples one at a time) over hypothesis-generated streams
and window specs — tuple and time windows,
step < size (overlapping), step = size and step > size (gaps), random
batch partitions, and time windows over ascending and out-of-order
timestamps with large gaps (hundreds of empty windows, which
production jumps and the oracle walks one by one).

Comparison discipline: **exact** equality, everywhere.  Production and
oracle both hand the same values in the same order to the same
``compute``, so nothing is entitled to differ by even an ulp.

The small-shape draws cover every window a policy plausibly uses;
``TestDeepWindows`` draws sizes up to 400 so the ring-buffer trim and
the batch-spanning sweep are proven at depth too.  Under ``FUZZ_LONG=1``
(the nightly ``fuzz-deep`` job) it runs a far larger example budget.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple
from tests.conftest import production_and_oracle

SCHEMA = Schema(
    "w",
    [
        Field("t", DataType.TIMESTAMP),
        Field("x", DataType.DOUBLE),
        Field("i", DataType.INT),
    ],
)

#: Every built-in aggregate, over the double and the int column.
AGG_POOL = [
    "x:avg", "x:sum", "x:count", "x:min", "x:max",
    "x:firstval", "x:lastval", "x:stdev", "x:median",
    "i:sum", "i:min", "i:max", "i:avg",
]

values_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
    min_size=0,
    max_size=60,
)


def make_tuples(values, timestamps=None):
    if timestamps is None:
        timestamps = [float(index) for index in range(len(values))]
    return [
        StreamTuple(SCHEMA, (float(ts), float(v), int(v)))
        for ts, v in zip(timestamps, values)
    ]


def build_graph(window_type, size, step, agg_texts):
    specs = [AggregationSpec.parse(text) for text in agg_texts]
    return QueryGraph("w").append(
        AggregateOperator(
            WindowSpec(window_type, size, step),
            specs,
            time_attribute="t" if window_type is WindowType.TIME else None,
        )
    )


#: (from index, seconds): every timestamp from that index on moves later
#: by that much — a gap of up to 400 empty windows on the oracle's walk.
gaps_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0, max_value=400, allow_nan=False, width=16),
    ),
    max_size=3,
)


def with_gaps(timestamps, gaps):
    shifted = list(timestamps)
    for start, gap in gaps:
        for index in range(start, len(shifted)):
            shifted[index] += gap
    return shifted


def partition(items, cuts):
    batches, last = [], 0
    for cut in sorted(set(cuts)):
        batches.append(items[last:cut])
        last = cut
    batches.append(items[last:])
    return batches


def assert_equivalent(got, expected):
    assert [t.values for t in got] == [t.values for t in expected]


def run_pair(graph, tuples, cuts):
    """(production outputs over a random batch partition, seed outputs)."""
    return production_and_oracle(graph, SCHEMA, partition(tuples, cuts))


class TestTupleWindowEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        values=values_strategy,
        size=st.integers(min_value=1, max_value=8),
        step=st.integers(min_value=1, max_value=8),
        aggs=st.lists(st.sampled_from(AGG_POOL), min_size=1, max_size=5, unique=True),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    def test_columnar_matches_seed(self, values, size, step, aggs, cuts):
        graph = build_graph(WindowType.TUPLE, size, step, aggs)
        tuples = make_tuples(values)
        assert_equivalent(*run_pair(graph, tuples, cuts))

    @settings(max_examples=100, deadline=None)
    @given(
        values=values_strategy,
        size=st.integers(min_value=2, max_value=10),
        aggs=st.lists(st.sampled_from(AGG_POOL), min_size=1, max_size=4, unique=True),
    )
    def test_fully_overlapping_window(self, values, size, aggs):
        """step=1 is the maximum overlap: every tuple past the first
        ``size - 1`` closes a window."""
        graph = build_graph(WindowType.TUPLE, size, 1, aggs)
        tuples = make_tuples(values)
        assert_equivalent(*run_pair(graph, tuples, [7, 8, 23]))


class TestTimeWindowEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        values=values_strategy,
        deltas=st.lists(
            st.floats(min_value=0, max_value=5, allow_nan=False, width=16),
            min_size=0,
            max_size=60,
        ),
        size=st.integers(min_value=1, max_value=10),
        step=st.integers(min_value=1, max_value=10),
        aggs=st.lists(st.sampled_from(AGG_POOL), min_size=1, max_size=4, unique=True),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        gaps=gaps_strategy,
    )
    def test_monotonic_timestamps(self, values, deltas, size, step, aggs, cuts, gaps):
        """Ascending timestamps, the order the paper's sources produce."""
        n = min(len(values), len(deltas))
        timestamps, now = [], 0.0
        for delta in deltas[:n]:
            now += delta
            timestamps.append(now)
        graph = build_graph(WindowType.TIME, size, step, aggs)
        tuples = make_tuples(values[:n], with_gaps(timestamps, gaps))
        assert_equivalent(*run_pair(graph, tuples, cuts))

    @settings(max_examples=150, deadline=None)
    @given(
        values=values_strategy,
        timestamps=st.lists(
            st.floats(min_value=0, max_value=60, allow_nan=False, width=16),
            min_size=0,
            max_size=60,
        ),
        size=st.integers(min_value=1, max_value=10),
        step=st.integers(min_value=1, max_value=10),
        aggs=st.lists(st.sampled_from(AGG_POOL), min_size=1, max_size=4, unique=True),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        gaps=gaps_strategy,
    )
    def test_out_of_order_timestamps(self, values, timestamps, size, step, aggs, cuts, gaps):
        """Arbitrary timestamps: late ones land in still-open windows by
        value, across batch boundaries and gaps alike."""
        n = min(len(values), len(timestamps))
        graph = build_graph(WindowType.TIME, size, step, aggs)
        tuples = make_tuples(values[:n], with_gaps(timestamps[:n], gaps))
        assert_equivalent(*run_pair(graph, tuples, cuts))


def seeded_values(seed, count):
    """*count* float32-representable values; runs of repeats now and
    then, so constant windows (stdev's exact zero) and ties (min/max,
    median) reach deep windows too."""
    rng = random.Random(seed)
    values = []
    while len(values) < count:
        value = float(round(rng.uniform(-50, 50) * 8) / 8)
        values.extend([value] * (rng.randint(2, 12) if rng.random() < 0.1 else 1))
    return values[:count]


class TestDeepWindows:
    """Production ≡ ``StreamEngine.reference()`` at window depths far
    past anything a policy uses, the whole aggregate pool included."""

    @settings(max_examples=1500 if os.environ.get("FUZZ_LONG") else 60, deadline=None)
    @given(
        size=st.integers(min_value=3, max_value=400),
        step=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        surplus=st.integers(min_value=0, max_value=120),
        aggs=st.lists(st.sampled_from(AGG_POOL), min_size=1, max_size=5, unique=True),
        cuts=st.lists(st.integers(min_value=0, max_value=700), max_size=6),
    )
    def test_engine_matches_reference_at_depth(
        self, size, step, seed, surplus, aggs, cuts
    ):
        tuples = make_tuples(seeded_values(seed, size + surplus))
        graph = build_graph(WindowType.TUPLE, size, step, aggs)
        got, expected = run_pair(graph, tuples, cuts)
        assert len(expected) == surplus // step + 1
        assert_equivalent(got, expected)
