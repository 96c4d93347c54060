"""Regression pins for the columnar-window edge cases.

The streams differential harness (``test_streams_equivalence``) covers
these paths statistically; this module pins them *directly at the
operator level*, so a regression names the exact mechanism instead of a
shrunk counterexample:

- out-of-order timestamps: a time window selects its members by value,
  so a late timestamp — mid-stream, inside one batch, across the
  amortized-compaction threshold, in bursts or on every step — is
  output-identical to the oracle's row path
  (``repro.streams.reference``), and the retained buffer still shrinks;
- one way to evaluate a time window: the census of its state, and no
  trace of a second path under ``src/repro/streams``;
- a gap of empty time windows is jumped, not walked: a record days (or
  a millisecond epoch's worth of seconds) later returns at once, with
  every window bound still ``t0 + k*step``;
- a non-finite timestamp is refused at ingest, atomically, on both
  engines, instead of holding a time window's loop forever, and a DOUBLE
  column (which takes NaN and ±inf) cannot time a window at all;
- empty and singleton batch partitions: a bound window (what
  ``AggregateOperator.bind`` returns) must tolerate degenerate
  partitions without corrupting window state, and any partitioning
  must emit exactly the same tuples as one monolithic batch and as the
  reference path;
- a third-party ``compute`` over a deep window matches the oracle;
- window size / step types: a tuple window counts tuples and refuses a
  non-int at construction, a time window keeps fractional seconds, and
  neither takes a non-finite size or step;
- emission coercion: a value whose type differs from its output field's
  is widened, or refused, exactly as ``DataType.coerce`` does it.
"""

import math
from pathlib import Path

import pytest

import repro.streams
from repro.errors import SchemaError, StreamError
from repro.serving.wire import decode_message
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateFunction,
    register_aggregate_function,
)
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
    _ColumnarTimeWindow,
)
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple, make_tuple
from tests.conftest import bound, oracle, wall_clock_guard

SCHEMA = Schema(
    "sensor",
    [Field("ts", DataType.TIMESTAMP), Field("v", DataType.DOUBLE)],
)

AGGREGATIONS = ("v:sum", "v:min", "v:max", "v:count", "v:lastval")


def make_operator(window_type, size, step):
    return AggregateOperator(
        WindowSpec(window_type, size, step),
        [AggregationSpec.parse(text) for text in AGGREGATIONS],
    )


def make_reference(window_type, size, step):
    """The oracle's row-buffer aggregate over the same window spec."""
    return oracle(make_operator(window_type, size, step))


MAKERS = {"production": make_operator, "oracle": make_reference}


def tuples_of(points):
    return [make_tuple(SCHEMA, {"ts": float(ts), "v": float(v)}) for ts, v in points]


def run_batches(subject, batches):
    """Value rows emitted over *batches* by *subject*: a
    :func:`tests.conftest.bound` run the caller keeps (to inspect its
    window state), or an operator, bound here."""
    process = subject if callable(subject) else bound(subject, SCHEMA)
    emitted = []
    for batch in batches:
        emitted.extend(process(batch))
    return [t.values for t in emitted]


def bind_window(window_type, size, step):
    """(tuples in, tuples out through a bind, the columnar window state
    behind it)."""
    process = bound(make_operator(window_type, size, step), SCHEMA)
    return process, process.__self__


def partitions(items, sizes):
    """Split *items* into consecutive chunks of the given *sizes*."""
    chunks, cursor = [], 0
    for size in sizes:
        chunks.append(items[cursor:cursor + size])
        cursor += size
    assert cursor == len(items), "partition sizes must cover the input"
    return chunks


def oracle_rows(size, step, stream):
    """What the oracle emits for a time window over *stream*, fed one
    tuple at a time."""
    return run_batches(make_reference(WindowType.TIME, size, step), [[t] for t in stream])


class TestOutOfOrderTimeWindows:
    OOO_POINTS = [
        (0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
        (1.5, 4.0),              # the first regression
        (3.0, 5.0), (2.5, 6.0), (6.0, 7.0), (5.0, 8.0), (9.0, 9.0),
    ]

    def test_first_regression_matches_reference(self):
        process, _ = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of(self.OOO_POINTS)
        got = run_batches(process, [stream[:3], stream[3:4], stream[4:]])
        assert got == oracle_rows(2, 2, stream)
        assert got

    @pytest.mark.parametrize("size,step", [(2, 2), (3, 1), (1, 3)])
    def test_disordered_stream_matches_reference(self, size, step):
        process, _ = bind_window(WindowType.TIME, size, step)
        stream = tuples_of(self.OOO_POINTS)
        got = run_batches(process, [stream])
        assert got == oracle_rows(size, step, stream)
        assert got, "edge-case stream must actually emit windows"

    def test_disorder_survives_compaction_threshold(self):
        # > 64 retained entries forces the amortized compaction sweep;
        # stale-entry removal must stay output-neutral.
        points = []
        ts = 0.0
        for i in range(300):
            ts += 0.5
            points.append((ts, float(i)))
            if i % 7 == 3:
                points.append((ts - 0.25, float(-i)))  # persistent disorder
        process, state = bind_window(WindowType.TIME, 4, 2)
        stream = tuples_of(points)
        got = run_batches(process, partitions(stream, [50] * 7 + [len(stream) - 350]))
        assert got == oracle_rows(4, 2, stream)
        # The compaction threshold moved off its initial value and the
        # buffer did not grow with the whole stream.
        assert len(state.ts) < len(points)

    def test_regression_inside_one_batch_matches_reference(self):
        # A late timestamp *within* a batch, not just across batch
        # boundaries: its batch-mates must not leak into windows that
        # close before they arrive.
        process, _ = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of([(0.0, 1.0), (3.0, 2.0), (1.0, 3.0), (4.0, 4.0), (6.0, 5.0)])
        got = run_batches(process, [stream])
        assert got == oracle_rows(2, 2, stream)
        assert got


class TestDisorderBursts:
    """Bursts of disorder between long ascending runs: output-identical
    to the oracle throughout, and a burst's late entries are compacted
    away once no window can need them."""

    @staticmethod
    def ooo_then_clean(n_clean):
        """One early regression, then a long strictly-ascending tail."""
        points = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (1.5, 4.0)]
        ts = 3.0
        for i in range(n_clean):
            points.append((ts, float(i)))
            ts += 1.0
        return points

    def test_clean_tail_after_a_regression_compacts_the_backlog(self):
        process, state = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of(self.ooo_then_clean(200))
        got = run_batches(process, [stream[:5], stream[5:]])
        assert got == oracle_rows(2, 2, stream)
        # The clean tail pushed the buffer past the compaction threshold
        # and the sweep removed the stale disordered prefix.
        assert 1.5 not in state.ts
        assert len(state.ts) < len(stream)

    def test_two_disorder_bursts_match_reference(self):
        points = self.ooo_then_clean(200)
        # ...and a second disorder burst after the first has compacted
        # away.
        ts = points[-1][0]
        points += [(ts - 0.5, -1.0), (ts + 1.0, -2.0)]
        ts += 1.0
        for i in range(150):
            ts += 1.0
            points.append((ts, float(i)))
        for size, step in ((2, 2), (3, 1), (1, 3)):
            process, _ = bind_window(WindowType.TIME, size, step)
            stream = tuples_of(points)
            got = run_batches(process, partitions(stream, [7] * 50 + [len(stream) - 350]))
            assert got == oracle_rows(size, step, stream)
            assert got

    def test_regression_after_a_clean_tail_matches_reference(self):
        process, _ = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of(self.ooo_then_clean(200))
        last = stream[-1]["ts"]
        stream += tuples_of([(last - 0.25, 9.0), (last + 4.0, 10.0)])
        got = run_batches(process, [stream[:-2], stream[-2:]])
        assert got == oracle_rows(2, 2, stream)

    def test_persistent_disorder_matches_reference(self):
        # Persistent disorder keeps inverted pairs inside the live tail
        # at every compaction.
        points = [(0.0, 0.0)]
        ts = 0.0
        for i in range(300):
            ts += 0.5
            points.append((ts, float(i)))
            points.append((ts - 0.25, float(-i)))  # inversion every step
        process, _ = bind_window(WindowType.TIME, 4, 2)
        stream = tuples_of(points)
        got = run_batches(process, [stream])
        assert got == oracle_rows(4, 2, stream)


class TestOneTimeWindowPath:
    """The census of the collapse: a time window has one way to
    evaluate, and nothing of a second one survives."""

    def test_time_window_state_is_exactly_five_slots(self):
        assert set(_ColumnarTimeWindow.__slots__) == {
            "tpos", "ts", "t0", "next_idx", "compact_at",
        }

    def test_no_second_path_is_named_under_streams(self):
        gone = (
            "_process_monotonic", "_process_scan", "_rearm", "_is_ascending",
            "monotonic", "last_ts",
        )
        streams = Path(repro.streams.__file__).parent
        found = [
            (path.relative_to(streams).as_posix(), name)
            for path in sorted(streams.rglob("*.py"))
            for name in gone
            if name in path.read_text()
        ]
        assert found == []


class TestGapsAreJumped:
    """A closing time window that selects nothing jumps every empty
    window the arrival closes instead of walking them one by one."""

    @pytest.mark.parametrize("gap", [3e9, 1.7e12])
    def test_a_huge_gap_returns_at_once(self, gap):
        """3e9 s on a 60 s / 30 s window is 1e8 empty windows (18 s on
        the loop thread when they were walked); 1.7e12 is a millisecond
        epoch sent as seconds.  Production only: the oracle walks."""
        process, state = bind_window(WindowType.TIME, 60, 30)
        stream = tuples_of([(0.0, 1.0), (10.0, 2.0), (gap, 3.0), (gap + 100.0, 4.0)])
        with wall_clock_guard(5):
            got = run_batches(process, [stream[:3], stream[3:]])
        # (sum, min, max, count, lastval): [0, 60), then the two windows
        # [gap - 30, gap + 30) and [gap, gap + 60) holding the gap record.
        assert got == [(3.0, 1.0, 2.0, 2, 2.0), (3.0, 3.0, 3.0, 1, 3.0), (3.0, 3.0, 3.0, 1, 3.0)]
        # Bounds keep the formula: the next window is t0 + k*step.
        assert state.t0 + state.next_idx * 30 + 60 > gap + 100.0
        assert state.t0 + (state.next_idx - 1) * 30 + 60 <= gap + 100.0

    @pytest.mark.parametrize("size,step", [(60, 30), (7, 7), (2.5, 9.75), (45, 0.3)])
    def test_gaps_match_the_oracle(self, size, step):
        points = [(0.0, 1.0), (1.0, 2.0), (4000.0, 3.0), (3990.0, 4.0),
                  (4001.5, 5.0), (11234.25, 6.0), (11234.0, 7.0), (12000.0, 8.0)]
        process, _ = bind_window(WindowType.TIME, size, step)
        stream = tuples_of(points)
        got = run_batches(process, [stream[:3], stream[3:6], stream[6:]])
        assert got == oracle_rows(size, step, stream)
        assert got

    def test_the_jump_backs_off_a_rounding_overshoot(self):
        """The arrival sits one ulp below window 152's end, and the
        estimate ``(arrival - end) // step`` rounds it onto that end: on
        its own it would skip window 152, which the arrival leaves open
        and then joins."""
        t0 = -116.9
        late = math.nextafter(t0 + 152 * 2.5 + 60, -math.inf)
        stream = tuples_of([(t0, 1.0), (late, 2.0), (late + 1000.0, 3.0)])
        process, _ = bind_window(WindowType.TIME, 60, 2.5)
        got = run_batches(process, [stream])
        assert got == oracle_rows(60, 2.5, stream)
        assert len(got) == 1 + 24  # t0's window, then the 24 holding `late`


class TestNonFiniteTimestampsAtIngest:
    """A NaN or infinite timestamp held every time window's loop open
    forever — production and oracle alike, and on the served path the
    event loop for every connection.  It is refused at ingest."""

    FRAME = (
        '{"seq": 1, "op": "ingest", "body": {"stream": "sensor", "records": '
        '[{"ts": 0.0, "v": 1.0}, {"ts": %s, "v": 2.0}, {"ts": 90.0, "v": 3.0}]}}'
    )

    @pytest.mark.parametrize("engine_kind", [StreamEngine, StreamEngine.reference])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_decoded_frame_is_refused_whole(self, literal, engine_kind):
        _, op = decode_message((self.FRAME % literal).encode())
        engine = engine_kind()
        stream = engine.register_input_stream("sensor", SCHEMA)
        handle = engine.register_query(
            QueryGraph("sensor").append(make_operator(WindowType.TIME, 60, 30))
        )
        with wall_clock_guard(5):
            with pytest.raises(SchemaError, match="not finite"):
                engine.push_batch(op.stream, op.records)
        # Atomic: not even the valid record ahead of it was ingested.
        assert stream.total_appended == 0
        engine.push_batch("sensor", [{"ts": 0.0, "v": 1.0}, {"ts": 90.0, "v": 3.0}])
        assert [t.values for t in engine.read(handle)] == [(1.0, 1.0, 1.0, 1, 1.0)]

    @pytest.mark.parametrize("engine_kind", [StreamEngine, StreamEngine.reference])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_double_time_attribute_is_refused_at_registration(self, value, engine_kind):
        """A DOUBLE column takes NaN and ±inf at ingest; as a time
        attribute one crashed the plan's gap jump and looped the oracle.
        Only TIMESTAMP and INT columns may time a window."""
        engine = engine_kind()
        engine.register_input_stream("sensor", SCHEMA)
        graph = QueryGraph("sensor").append(AggregateOperator(
            WindowSpec(WindowType.TIME, 60, 30), [AggregationSpec.parse("v:sum")],
            time_attribute="v",
        ))
        with wall_clock_guard(5):
            with pytest.raises(SchemaError, match="declare it TIMESTAMP"):
                engine.register_query(graph)
                engine.push_batch("sensor", [{"ts": 0.0, "v": 0.0}, {"ts": 1.0, "v": value}])
        assert engine.active_query_count == 0


class TestDegenerateBatchPartitions:
    POINTS = [(float(i), float((i * 7) % 11)) for i in range(40)]

    @pytest.mark.parametrize("window_type", [WindowType.TUPLE, WindowType.TIME])
    @pytest.mark.parametrize("size,step", [(5, 2), (3, 3), (2, 5)])
    def test_partitioning_is_output_invariant(self, window_type, size, step):
        stream = tuples_of(self.POINTS)
        reference = make_reference(window_type, size, step)
        expected = run_batches(reference, [[t] for t in stream])

        shapes = {
            "monolithic": [len(stream)],
            "singletons": [1] * len(stream),
            "ragged": [0, 1, 0, 7, 1, 1, 13, 0, 17],
        }
        shapes["ragged"].append(len(stream) - sum(shapes["ragged"]))
        for label, sizes in shapes.items():
            compiled = make_operator(window_type, size, step)
            got = run_batches(compiled, partitions(stream, sizes))
            assert got == expected, f"partition shape {label!r} diverged"
        assert expected, "workload must emit windows"

    @pytest.mark.parametrize("side", sorted(MAKERS))
    @pytest.mark.parametrize("window_type", [WindowType.TUPLE, WindowType.TIME])
    def test_empty_batch_is_a_no_op(self, window_type, side):
        process = bound(MAKERS[side](window_type, 3, 1), SCHEMA)
        stream = tuples_of(self.POINTS[:10])
        emitted = []
        assert process([]) == []
        for tup in stream[:5]:
            emitted.extend(process([tup]))
            assert process([]) == []
            assert process(()) == []
        emitted.extend(process(stream[5:]))

        reference = MAKERS[side](window_type, 3, 1)
        expected = run_batches(reference, [stream])
        assert [t.values for t in emitted] == expected

    def test_singleton_window_singleton_batches(self):
        # size=1/step=1: every tuple is its own window, on both sides.
        for make in MAKERS.values():
            operator = make(WindowType.TUPLE, 1, 1)
            stream = tuples_of(self.POINTS[:8])
            got = run_batches(operator, [[t] for t in stream])
            assert [row[4] for row in got] == [t["v"] for t in stream]  # lastval
            assert [row[3] for row in got] == [1] * len(stream)          # count


class TestDeepThirdPartyFunction:
    def test_third_party_compute_matches_the_oracle_at_size_110(self):
        register_aggregate_function(
            AggregateFunction("spread", lambda v: max(v) - min(v), lambda d: d)
        )
        try:
            specs = [AggregationSpec.parse("v:spread"), AggregationSpec.parse("v:max")]
            window = WindowSpec(WindowType.TUPLE, 110, 1)
            stream = tuples_of([(float(i), float((i * 7) % 11)) for i in range(330)])
            got = run_batches(
                AggregateOperator(window, specs), partitions(stream, [7, 1, 322])
            )
            assert got == run_batches(
                oracle(AggregateOperator(window, specs)), [[t] for t in stream]
            )
            assert len(got) == 221
        finally:
            del AGGREGATE_FUNCTIONS["spread"]


class TestWindowSizeTypes:
    @pytest.mark.parametrize(
        "size,step", [(2.5, 1), (2, 1.5), (2.0, 1), (True, 1), (3, True)]
    )
    def test_tuple_window_refuses_a_non_int_size_or_step(self, size, step):
        """Before PR 21 (2.5, 1) constructed, then the first batch
        died with a raw ``TypeError`` out of ``range()``."""
        with pytest.raises(StreamError, match="counts tuples"):
            WindowSpec(WindowType.TUPLE, size, step)

    @pytest.mark.parametrize("window_type", [WindowType.TUPLE, WindowType.TIME])
    @pytest.mark.parametrize(
        "size,step", [(math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf)]
    )
    def test_a_non_finite_size_or_step_is_refused(self, window_type, size, step):
        """``WindowSpec(TIME, nan, 1)`` used to construct."""
        with pytest.raises(StreamError, match="positive and finite"):
            WindowSpec(window_type, size, step)

    def test_time_window_keeps_fractional_seconds(self):
        stream = tuples_of([(i * 0.5, i) for i in range(12)])
        got = run_batches(make_operator(WindowType.TIME, 2.5, 0.5), [stream])
        assert got == run_batches(
            make_reference(WindowType.TIME, 2.5, 0.5), [[t] for t in stream]
        )
        assert got[0] == (10.0, 0.0, 4.0, 5, 4.0)  # [0, 2.5): v = 0..4
        assert len(got) == 7


class TestEmissionCoercion:
    """A window result is coerced to its output field like any ingress
    value: production and the oracle agree value-for-value, type-for-type
    and error-for-error."""

    MIXED = Schema("m", [Field("d", DataType.DOUBLE), Field("i", DataType.INT)])

    def both_sides(self, agg_texts, rows, size=3, step=1):
        specs = [AggregationSpec.parse(text) for text in agg_texts]
        window = WindowSpec(WindowType.TUPLE, size, step)
        # Built directly: ints sit un-widened in the DOUBLE column, so
        # sum/min/median hand an int to a DOUBLE output field.
        stream = [StreamTuple(self.MIXED, row) for row in rows]
        outcomes = []
        for operator in (
            AggregateOperator(window, specs), oracle(AggregateOperator(window, specs))
        ):
            try:
                emitted = bound(operator, self.MIXED)(stream)
            except SchemaError as error:
                outcomes.append(("error", str(error)))
            else:
                outcomes.append(
                    [[(type(v), v) for v in t.values] for t in emitted]
                )
        return outcomes

    def test_int_results_widen_into_double_fields(self):
        rows = [(1, 4), (2, 5), (3, 6), (4, 7)]
        production, expected = self.both_sides(
            ["d:sum", "d:min", "d:median", "i:avg", "i:sum", "i:count", "d:lastval"],
            rows,
        )
        assert production == expected
        assert production[0] == [
            (float, 6.0), (float, 1.0), (float, 2.0), (float, 5.0),
            (int, 15), (int, 3), (float, 3.0),
        ]

    def test_mistyped_third_party_result_raises_the_coerce_error(self):
        for name, result in (("anyhigh", lambda v: max(v) > 2), ("label", lambda v: "x")):
            register_aggregate_function(AggregateFunction(name, result, lambda d: d))
            try:
                production, expected = self.both_sides(
                    [f"d:{name}"], [(1.0, 1), (2.0, 2), (3.0, 3)]
                )
            finally:
                del AGGREGATE_FUNCTIONS[name]
            assert production == expected
            assert production[0] == "error"
        assert "is not valid for data type 'double'" in production[1]

    def test_a_non_finite_timestamp_result_is_refused_on_both_sides(self):
        """A timestamp output field refuses ``inf`` like a timestamp input
        (no built-in can produce one; a third-party function can)."""
        register_aggregate_function(
            AggregateFunction("horizon", lambda v: math.inf, lambda d: d)
        )
        try:
            schema = Schema("t", [Field("ts", DataType.TIMESTAMP)])
            window = WindowSpec(WindowType.TUPLE, 2, 1)
            stream = [StreamTuple(schema, (1.0,))] * 2
            errors = []
            for operator in (
                AggregateOperator(window, [AggregationSpec.parse("ts:horizon")]),
                oracle(AggregateOperator(window, [AggregationSpec.parse("ts:horizon")])),
            ):
                with pytest.raises(SchemaError, match="timestamp inf is not finite") as error:
                    bound(operator, schema)(stream)
                errors.append(str(error.value))
        finally:
            del AGGREGATE_FUNCTIONS["horizon"]
        assert errors[0] == errors[1]
