"""Regression pins for the PR 3 columnar-window edge cases.

The property/differential harnesses (``test_prop_window_equivalence``,
the StreamSQL fuzzer) cover these paths statistically; this module pins
them *directly at the operator level*, so a regression names the exact
mechanism instead of a shrunk counterexample:

- the out-of-order time-window path: the columnar instance must drop
  from pointer eviction into the seed-semantics scan fallback on the
  first timestamp regression — including mid-stream, including across
  the amortized-compaction threshold — and stay output-identical to the
  oracle's row path (``repro.streams.reference``);
- the scan fallback must *not* be sticky: once a compaction sweep
  drains the disordered backlog (the retained buffer is ascending
  again) the instance re-arms the monotonic pointer path, and a later
  regression drops it back to scan — output-identical throughout;
- empty and singleton batch partitions: a bound window (what
  ``AggregateOperator.bind`` returns) must tolerate degenerate
  partitions without corrupting window state, and any partitioning
  must emit exactly the same tuples as one monolithic batch and as the
  reference path;
- a third-party ``compute`` over a deep window matches the oracle;
- window size / step types: a tuple window counts tuples and refuses a
  non-int at construction, a time window keeps fractional seconds;
- emission coercion: a value whose type differs from its output field's
  is widened, or refused, exactly as ``DataType.coerce`` does it.
"""

import pytest

from repro.errors import SchemaError, StreamError
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
from tests.conftest import bound, oracle

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
    """Value rows emitted over *batches* by *subject*: a ``batch ->
    batch`` bind the caller keeps (to inspect its window state), or an
    operator, bound here."""
    process = subject if callable(subject) else bound(subject, SCHEMA)
    emitted = []
    for batch in batches:
        emitted.extend(process(batch))
    return [t.values for t in emitted]


def bind_window(window_type, size, step):
    """(``batch -> batch``, the columnar window state behind it)."""
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


class TestOutOfOrderTimeWindows:
    OOO_POINTS = [
        (0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
        (1.5, 4.0),              # regression: drops into scan mode
        (3.0, 5.0), (2.5, 6.0), (6.0, 7.0), (5.0, 8.0), (9.0, 9.0),
    ]

    def test_first_regression_switches_to_scan_mode(self):
        process, state = bind_window(WindowType.TIME, 2, 2)
        process(tuples_of(self.OOO_POINTS[:3]))
        assert isinstance(state, _ColumnarTimeWindow) and state.monotonic
        process(tuples_of(self.OOO_POINTS[3:4]))
        assert not state.monotonic

    @pytest.mark.parametrize("size,step", [(2, 2), (3, 1), (1, 3)])
    def test_scan_fallback_matches_reference(self, size, step):
        process, state = bind_window(WindowType.TIME, size, step)
        reference = make_reference(WindowType.TIME, size, step)
        stream = tuples_of(self.OOO_POINTS)
        got = run_batches(process, [stream])
        expected = run_batches(reference, [[t] for t in stream])
        assert got == expected
        assert got, "edge-case stream must actually emit windows"
        assert not state.monotonic

    def test_scan_mode_survives_compaction_threshold(self):
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
        reference = make_reference(WindowType.TIME, 4, 2)
        stream = tuples_of(points)
        got = run_batches(process, partitions(stream, [50] * 7 + [len(stream) - 350]))
        expected = run_batches(reference, [[t] for t in stream])
        assert got == expected
        assert not state.monotonic
        # The compaction threshold moved off its initial value and the
        # buffer did not grow with the whole stream.
        assert len(state.ts) < len(points)

    def test_regression_inside_one_batch_is_detected(self):
        # The disorder check walks timestamps *within* a batch, not just
        # across batch boundaries.
        process, state = bind_window(WindowType.TIME, 2, 2)
        process(tuples_of([(0.0, 1.0), (3.0, 2.0), (1.0, 3.0), (4.0, 4.0)]))
        assert not state.monotonic


class TestScanFallbackReArms:
    """The PR 5 regression pins: scan mode is left again once the
    disordered backlog has been compacted away, instead of pinning the
    stream to O(buffer) scans forever after one late timestamp."""

    @staticmethod
    def ooo_then_clean(n_clean):
        """One early regression, then a long strictly-ascending tail."""
        points = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (1.5, 4.0)]
        ts = 3.0
        for i in range(n_clean):
            points.append((ts, float(i)))
            ts += 1.0
        return points

    def test_rearm_after_backlog_compacts_away(self):
        process, state = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of(self.ooo_then_clean(200))
        process(stream[:5])
        assert not state.monotonic  # the regression flipped it
        process(stream[5:])
        # The clean tail pushed the buffer past the compaction threshold,
        # the sweep removed the stale disordered prefix, and the retained
        # ascending tail re-armed the pointer path.
        assert state.monotonic
        assert state.last_ts == stream[-1]["ts"]

    def test_rearm_is_output_identical_to_reference(self):
        points = self.ooo_then_clean(200)
        # ...and a second disorder burst *after* the re-arm, so the
        # arm → scan → arm → scan → arm cycle is fully exercised.
        ts = points[-1][0]
        points += [(ts - 0.5, -1.0), (ts + 1.0, -2.0)]
        ts += 1.0
        for i in range(150):
            ts += 1.0
            points.append((ts, float(i)))
        for size, step in ((2, 2), (3, 1), (1, 3)):
            process, state = bind_window(WindowType.TIME, size, step)
            reference = make_reference(WindowType.TIME, size, step)
            stream = tuples_of(points)
            got = run_batches(process, partitions(stream, [7] * 50 + [len(stream) - 350]))
            expected = run_batches(reference, [[t] for t in stream])
            assert got == expected
            assert got
            # Both bursts compacted away: the stream ends re-armed.
            assert state.monotonic

    def test_regression_after_rearm_falls_back_to_scan(self):
        process, state = bind_window(WindowType.TIME, 2, 2)
        stream = tuples_of(self.ooo_then_clean(200))
        process(stream)
        assert state.monotonic
        last = stream[-1]["ts"]
        process(tuples_of([(last - 0.25, 9.0)]))
        assert not state.monotonic

    def test_no_rearm_while_disorder_is_still_buffered(self):
        # Persistent disorder keeps inverted pairs inside the live tail,
        # so every compaction sees a non-ascending buffer and scan mode
        # survives — the old always-scan behaviour, now by necessity
        # rather than stickiness.
        points = [(0.0, 0.0)]
        ts = 0.0
        for i in range(300):
            ts += 0.5
            points.append((ts, float(i)))
            points.append((ts - 0.25, float(-i)))  # inversion every step
        process, state = bind_window(WindowType.TIME, 4, 2)
        reference = make_reference(WindowType.TIME, 4, 2)
        stream = tuples_of(points)
        got = run_batches(process, [stream])
        expected = run_batches(reference, [[t] for t in stream])
        assert got == expected
        assert not state.monotonic


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
