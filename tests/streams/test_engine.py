"""Tests for the stream engine, catalog and handles."""

import math

import pytest

from repro.errors import EngineError, SchemaError, UnknownHandleError, UnknownStreamError
from repro.streams.catalog import StreamCatalog
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA, Schema
from repro.streams.stream import INGEST_CHUNK
from repro.streams.tuples import StreamTuple, make_tuple
from tests.conftest import wall_clock_guard

SIMPLE = Schema("s", [("x", "int")])


class TestCatalog:
    def test_register_and_get(self):
        catalog = StreamCatalog()
        catalog.register("s", SIMPLE)
        assert catalog.get("S").schema == SIMPLE
        assert "s" in catalog and "S" in catalog
        assert len(catalog) == 1

    def test_duplicate_rejected(self):
        catalog = StreamCatalog()
        catalog.register("s", SIMPLE)
        with pytest.raises(EngineError):
            catalog.register("S", SIMPLE)

    def test_unknown_stream(self):
        with pytest.raises(UnknownStreamError):
            StreamCatalog().get("nope")


class TestHandles:
    def test_uri_round_trip(self):
        handle = StreamHandle("dsms.local", "q42")
        parsed = StreamHandle.parse(handle.uri)
        assert parsed == handle
        assert parsed.query_id == "q42"

    def test_allocate_unique(self):
        first = StreamHandle.allocate("h")
        second = StreamHandle.allocate("h")
        assert first.uri != second.uri

    def test_parse_rejects_garbage(self):
        with pytest.raises(EngineError):
            StreamHandle.parse("http://x/y")
        with pytest.raises(EngineError):
            StreamHandle.parse("stream://hostonly")


class TestEngine:
    def make_engine(self):
        engine = StreamEngine()
        engine.register_input_stream("s", SIMPLE)
        return engine

    def test_register_and_read(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 2")))
        engine.push_batch("s", [{"x": v} for v in (1, 3, 5)])
        assert [t["x"] for t in engine.read(handle)] == [3, 5]

    def test_read_limit(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push_batch("s", [{"x": v} for v in range(1, 6)])
        assert [t["x"] for t in engine.read(handle, limit=2)] == [4, 5]
        assert [t["x"] for t in engine.read(handle, limit=9)] == [1, 2, 3, 4, 5]

    def test_read_limit_zero_and_negative(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push_batch("s", [{"x": v} for v in range(1, 6)])
        assert engine.read(handle, limit=0) == []  # used to be all five
        with pytest.raises(EngineError):
            engine.read(handle, limit=-1)  # used to be all but the first

    def test_queries_only_see_future_tuples(self):
        engine = self.make_engine()
        engine.push("s", {"x": 1})
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push("s", {"x": 2})
        assert [t["x"] for t in engine.read(handle)] == [2]

    def test_multiple_queries_same_stream(self):
        engine = self.make_engine()
        low = engine.register_query(QueryGraph("s").append(FilterOperator("x < 3")))
        high = engine.register_query(QueryGraph("s").append(FilterOperator("x >= 3")))
        engine.push_batch("s", [{"x": v} for v in (1, 3)])
        assert len(engine.read(low)) == 1
        assert len(engine.read(high)) == 1

    def test_withdraw_stops_processing(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push("s", {"x": 1})
        engine.withdraw(handle)
        with pytest.raises(UnknownHandleError):
            engine.read(handle)
        with pytest.raises(UnknownHandleError):
            engine.withdraw(handle)
        engine.push("s", {"x": 2})  # must not crash

    def test_invalid_graph_changes_nothing(self):
        engine = self.make_engine()
        bad = QueryGraph("s").append(FilterOperator("zz > 0"))
        with pytest.raises(Exception):
            engine.register_query(bad)
        assert len(engine) == 0

    def test_unknown_source_stream(self):
        engine = self.make_engine()
        with pytest.raises(UnknownStreamError):
            engine.register_query(QueryGraph("nope"))

    def test_duplicate_handle_rejected(self):
        engine = self.make_engine()
        handle = StreamHandle("dsms.local", "fixed")
        engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")), handle)
        with pytest.raises(EngineError):
            engine.register_query(
                QueryGraph("s").append(FilterOperator("x > 1")), handle
            )

    def test_subscribe_to_output(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        subscription = engine.subscribe(handle)
        engine.push("s", {"x": 5})
        assert [t["x"] for t in subscription.drain()] == [5]

    def test_register_streamsql_declares_stream(self):
        engine = StreamEngine()
        script = (
            "CREATE INPUT STREAM w (t timestamp, x double);\n"
            "CREATE OUTPUT STREAM output;\n"
            "SELECT * FROM w WHERE x > 1 INTO output;\n"
        )
        handle = engine.register_streamsql(script)
        engine.push("w", {"t": 0.0, "x": 2.0})
        assert len(engine.read(handle)) == 1

    def test_register_streamsql_schema_conflict(self):
        engine = StreamEngine()
        engine.register_input_stream("w", SIMPLE)
        script = (
            "CREATE INPUT STREAM w (t timestamp, x double);\n"
            "CREATE OUTPUT STREAM output;\n"
            "SELECT * FROM w WHERE x > 1 INTO output;\n"
        )
        with pytest.raises(EngineError):
            engine.register_streamsql(script)

    def test_total_registered_counter(self):
        engine = self.make_engine()
        engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 1")))
        engine.withdraw(handle)
        assert engine.total_registered == 2
        assert len(engine.active_queries()) == 1


def make_windowed_graph():
    """Filter + sliding-window aggregate — sensitive to tuple ordering."""
    from repro.streams.operators import AggregateOperator, AggregationSpec, WindowSpec, WindowType

    return (
        QueryGraph("s")
        .append(FilterOperator("x > 1"))
        .append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 3, 2),
                [AggregationSpec.parse("x:avg")],
            )
        )
    )


class TestBatchedDispatch:
    """`push_batch` must be output-equivalent to N single pushes."""

    def make_engine(self):
        engine = StreamEngine()
        engine.register_input_stream("s", SIMPLE)
        return engine

    RECORDS = [{"x": v} for v in (1, 3, 5, 2, 7, 0, 4, 6, 9, 8)]

    def dual_run(self, build_queries, records=None):
        """Run the same input per-tuple and batched; return both outputs."""
        records = records if records is not None else self.RECORDS
        outputs = []
        for mode in ("single", "batch"):
            engine = self.make_engine()
            handles = build_queries(engine)
            if mode == "single":
                for record in records:
                    engine.push("s", record)
            else:
                assert engine.push_batch("s", records) == len(records)
            outputs.append([tuple(engine.read(h)) for h in handles])
        return outputs

    def test_filter_outputs_identical(self):
        single, batched = self.dual_run(
            lambda e: [e.register_query(QueryGraph("s").append(FilterOperator("x > 3")))]
        )
        assert single == batched

    def test_window_aggregate_behavior_identical(self):
        single, batched = self.dual_run(
            lambda e: [e.register_query(make_windowed_graph())]
        )
        assert single == batched

    def test_multi_query_fanout_identical(self):
        def build(engine):
            return [
                engine.register_query(QueryGraph("s").append(FilterOperator(f"x > {i}")))
                for i in range(4)
            ] + [engine.register_query(make_windowed_graph())]

        single, batched = self.dual_run(build)
        assert single == batched

    def test_empty_batch(self):
        engine = self.make_engine()
        assert engine.push_batch("s", []) == 0

    def test_batch_accepts_stream_tuples(self):
        from repro.streams.tuples import make_tuple

        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push_batch("s", [make_tuple(SIMPLE, {"x": 2}), {"x": 3}])
        assert [t["x"] for t in engine.read(handle)] == [2, 3]

    @pytest.mark.parametrize(
        "new_engine", [StreamEngine, StreamEngine.reference], ids=["plan", "oracle"]
    )
    def test_a_source_tap_withdraws_at_the_batch_boundary(self, new_engine):
        """A tap is a batch listener: the query it withdraws has had
        every earlier batch and gets nothing of the one the tap saw, and
        nothing crashes on its closed output stream."""
        engine = new_engine()
        engine.register_input_stream("s", SIMPLE)
        victim_box = {}

        def withdraw_on_marker(batch):
            if any(tup["x"] == 99 for tup in batch):
                engine.withdraw(victim_box["handle"])

        # Attached before the victim registers, so it fires first.
        engine.catalog.get("s").add_batch_listener(withdraw_on_marker)
        victim = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        victim_box["handle"] = victim
        subscription = engine.subscribe(victim)
        for values in ((1, 2), (3, 99, 4), (5,)):
            engine.push_batch("s", [{"x": v} for v in values])
        assert [t["x"] for t in subscription.drain()] == [1, 2]
        with pytest.raises(UnknownHandleError):
            engine.read(victim)

    @pytest.mark.parametrize(
        "new_engine", [StreamEngine, StreamEngine.reference], ids=["plan", "oracle"]
    )
    @pytest.mark.parametrize("change", ["register", "withdraw"])
    def test_push_equals_singleton_push_batch_when_dispatch_changes_queries(
        self, new_engine, change
    ):
        """``push(t)`` is ``push_batch([t])``: a query registered by a
        tap while ``t`` is being dispatched misses ``t`` either way, and
        a query withdrawn during ``t``'s dispatch never sees it."""
        results = {}
        for mode in ("push", "push_batch"):
            engine = new_engine()
            engine.register_input_stream("s", SIMPLE)
            graph = QueryGraph("s").append(FilterOperator("x > 0"))
            box = {}

            def on_marker(batch, engine=engine, box=box, graph=graph):
                if batch[0]["x"] != 99:
                    return
                if change == "register":
                    box["handle"] = engine.register_query(graph)
                    box["sub"] = engine.subscribe(box["handle"])
                else:
                    engine.withdraw(box["handle"])

            engine.catalog.get("s").add_batch_listener(on_marker)
            # A bystander, so the plan exists before the tap registers.
            engine.register_query(graph)
            if change == "withdraw":
                box["handle"] = engine.register_query(graph)
                box["sub"] = engine.subscribe(box["handle"])
            for value in (1, 99, 2):
                if mode == "push":
                    engine.push("s", {"x": value})
                else:
                    engine.push_batch("s", [{"x": value}])
            results[mode] = [t["x"] for t in box["sub"].drain()]
        expected = [2] if change == "register" else [1]
        assert results["push"] == results["push_batch"] == expected

    def test_withdrawn_query_receives_nothing_after_batch(self):
        engine = self.make_engine()
        handle = engine.register_query(
            QueryGraph("s").append(FilterOperator("x > 0"))
        )
        subscription = engine.subscribe(handle)
        engine.push_batch("s", [{"x": 1}])
        engine.withdraw(handle)
        engine.push_batch("s", [{"x": 2}, {"x": 3}])  # must not crash
        assert [t["x"] for t in subscription.drain()] == [1]


class TestIngressConversion:
    """``push_batch`` converts records through a per-stream converter;
    ``make_tuple`` is the specification of what it accepts, what each
    record becomes and what every refusal says."""

    MIXED = Schema(
        "Mixed",
        [("T", "timestamp"), ("x", "double"), ("n", "int"), ("tag", "string"), ("ok", "bool")],
    )
    GOOD = {"T": 1.5, "x": 2.5, "n": 3, "tag": "a", "ok": True}

    RECORDS = {
        "declared spelling, exact types": GOOD,
        "declared spelling, another key order": dict(reversed(list(GOOD.items()))),
        "ints widen into timestamp/double": {**GOOD, "T": 7, "x": 2},
        "lower-cased key": {"t": 1.5, "x": 2.5, "n": 3, "tag": "a", "ok": False},
        "mixed-case keys": {"t": 1.5, "X": 2.5, "N": 3, "TAG": "a", "Ok": True},
        "missing key": {"T": 1.5, "x": 2.5, "n": 3, "tag": "a"},
        "extra key": {**GOOD, "zz": 1},
        "same arity, one key misspelt": {"T": 1.5, "x": 2.5, "n": 3, "tag": "a", "okay": True},
        "duplicate by case": {"T": 1.5, "t": 2.5, "x": 2.5, "n": 3, "tag": "a", "ok": True},
        "same arity, duplicate by case": {"T": 1.5, "t": 2.5, "x": 2.5, "n": 3, "tag": "a"},
        "bool in a double field": {**GOOD, "x": True},
        "bool in an int field": {**GOOD, "n": False},
        "float in an int field": {**GOOD, "n": 3.0},
        "int in a bool field": {**GOOD, "ok": 1},
        "string in a timestamp field": {**GOOD, "T": "yesterday"},
        "None in a string field": {**GOOD, "tag": None},
    }

    @staticmethod
    def outcome(build):
        try:
            tup = build()
        except SchemaError as error:
            return ("refused", str(error))
        return [(type(value), value) for value in tup.values]

    @pytest.mark.parametrize("label", sorted(RECORDS))
    def test_push_batch_matches_make_tuple(self, label):
        record = self.RECORDS[label]
        engine = StreamEngine()
        stream = engine.register_input_stream("m", self.MIXED)

        def pushed():
            engine.push_batch("m", [self.GOOD, record])
            return stream.snapshot()[-1]

        expected = self.outcome(lambda: make_tuple(self.MIXED, record))
        assert self.outcome(pushed) == expected
        assert ("refused" in expected) == (label not in (
            "declared spelling, exact types", "declared spelling, another key order",
            "ints widen into timestamp/double", "lower-cased key", "mixed-case keys",
        ))
        # A refused record refuses the whole list.
        assert stream.total_appended == (0 if "refused" in expected else 2)

    def test_generators_and_tuples_take_the_same_converter(self):
        engine = StreamEngine()
        stream = engine.register_input_stream("m", self.MIXED)
        ready = make_tuple(self.MIXED, self.GOOD)
        assert engine.push_batch("m", iter([self.GOOD, ready])) == 2
        engine.push("m", {**self.GOOD, "T": 9})
        first, second, third = stream.snapshot()
        assert first == ready and second is ready and third["T"] == 9.0


class TestHandBuiltTuplesAtIngest:
    """A ``StreamTuple`` handed to ``push_batch`` is coerced like a
    mapping: a conformant one goes in as itself, a widened one is
    rebuilt, and a bad one is refused before anything is appended —
    where it used to pass unchecked, hang the oracle's time window on an
    infinite timestamp and crash the plan's after its append."""

    TIMED = Schema("timed", [("ts", "timestamp"), ("x", "double"), ("n", "int")])

    def engine(self, kind):
        engine = kind()
        stream = engine.register_input_stream("timed", self.TIMED)
        handle = engine.register_query(QueryGraph("timed").append(AggregateOperator(
            WindowSpec(WindowType.TIME, 10, 5), [AggregationSpec.parse("x:sum")]
        )))
        engine.push_batch("timed", [{"ts": 0.0, "x": 1.0, "n": 1}, {"ts": 1.0, "x": 2.0, "n": 2}])
        return engine, stream, handle

    @pytest.mark.parametrize("kind", [StreamEngine, StreamEngine.reference])
    @pytest.mark.parametrize("values,refusal", [
        ((math.inf, 1.0, 1), "not finite"),
        ((math.nan, 1.0, 1), "not finite"),
        (("yesterday", 1.0, 1), "is not valid for data type 'timestamp'"),
        ((2.0, 1.0, 1.5), "is not valid for data type 'int'"),
        ((2.0, True, 1), "cannot store bool"),
    ], ids=["inf", "nan", "yesterday", "float-in-int", "bool-in-double"])
    def test_a_bad_tuple_is_refused_before_anything_is_appended(self, kind, values, refusal):
        engine, stream, handle = self.engine(kind)
        bad = StreamTuple(self.TIMED, values)
        with wall_clock_guard(5):
            with pytest.raises(SchemaError, match=refusal):
                engine.push_batch("timed", [{"ts": 2.0, "x": 3.0, "n": 3}, bad])
            with pytest.raises(SchemaError, match=refusal):
                engine.push("timed", bad)
        assert stream.total_appended == 2
        engine.push_batch("timed", [{"ts": 12.0, "x": 4.0, "n": 4}, {"ts": 20.0, "x": 8.0, "n": 8}])
        # [0, 10), [5, 15), [10, 20): none holds the refused batch's record.
        assert [t.values for t in engine.read(handle)] == [(3.0,), (4.0,), (4.0,)]

    @pytest.mark.parametrize("kind", [StreamEngine, StreamEngine.reference])
    def test_a_conformant_tuple_goes_in_as_itself_and_ints_are_widened(self, kind):
        engine, stream, _ = self.engine(kind)
        ready = StreamTuple(self.TIMED, (2.0, 3.0, 3))
        narrow = StreamTuple(self.TIMED, (3, 4, 4))
        engine.push_batch("timed", [ready, narrow])
        last, widened = stream.snapshot()[-2:]
        assert last is ready
        assert [(type(v), v) for v in widened.values] == [(float, 3.0), (float, 4.0), (int, 4)]


class TestAtomicIngest:
    """A refused list changes nothing, however long it is — over the
    wire an ``IngestOp`` answered with an error must not be half in."""

    def test_bad_record_past_the_chunk_boundary_appends_nothing(self):
        engine = StreamEngine()
        stream = engine.register_input_stream("s", SIMPLE)
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x >= 0")))
        records = [{"x": n} for n in range(INGEST_CHUNK + 6)]
        records[INGEST_CHUNK + 5] = {"x": "six"}
        with pytest.raises(SchemaError, match="'six'"):
            engine.push_batch("s", records)
        assert stream.total_appended == 0
        assert engine.read(handle) == []
        # The same list, repaired, goes in whole (in one dispatch).
        records[INGEST_CHUNK + 5] = {"x": 6}
        assert engine.push_batch("s", records) == INGEST_CHUNK + 6
        assert len(engine.read(handle)) == INGEST_CHUNK + 6

    def test_unbounded_iterables_stay_chunked(self):
        """Documented trade: an iterable is converted chunk by chunk
        (memory O(chunk)), so chunks before the bad record are in."""
        engine = StreamEngine()
        stream = engine.register_input_stream("s", SIMPLE)
        records = ({"x": n if n != INGEST_CHUNK + 5 else "six"} for n in range(10**9))
        with pytest.raises(SchemaError):
            engine.push_batch("s", records)
        assert stream.total_appended == INGEST_CHUNK


def avg_wind_engine(kind=StreamEngine):
    """An engine whose one query averages ``winddirection`` (INT) over
    windows of two records, stepping by one."""
    engine = kind()
    stream = engine.register_input_stream("weather", WEATHER_SCHEMA)
    handle = engine.register_query(QueryGraph("weather").append(AggregateOperator(
        WindowSpec(WindowType.TUPLE, 2, 1), [AggregationSpec.parse("winddirection:avg")])))
    return engine, stream, handle


def weather_records(count, start=0):
    return [dict(samplingtime=float(start + n), temperature=20.0, humidity=50.0,
                 solarradiation=0.0, rainrate=float(n % 3), windspeed=1.0,
                 winddirection=start + n, barometer=1000.0) for n in range(count)]


class TestPushBatches:
    """``push_batches``: ``push_batch`` of each list, with one dispatch
    for the lists gathered as columns."""

    @staticmethod
    def counted(stream):
        """Record ``(path, rows)`` per dispatch: columns or tuples."""
        calls = []
        for name in ("append_rows", "append_batch"):
            method = getattr(stream, name)

            def counting(rows, method=method, name=name):
                calls.append((name, len(rows)))
                return method(rows)

            setattr(stream, name, counting)
        return calls

    def test_lists_to_one_stream_are_one_dispatch(self):
        engine, stream, handle = avg_wind_engine()
        calls = self.counted(stream)
        lists = [weather_records(2), weather_records(3, 2), [], weather_records(1, 5)]
        assert engine.push_batches("weather", lists) == [2, 3, 0, 1]
        assert calls == [("append_rows", 6)]
        serial, _, serial_handle = avg_wind_engine()
        for records in lists:
            serial.push_batch("weather", records)
        assert engine.read(handle) == serial.read(serial_handle)
        assert stream.total_appended == 6

    def test_a_fallback_list_splits_the_group_and_a_refused_one_changes_nothing(self):
        engine, stream, handle = avg_wind_engine()
        calls = self.counted(stream)
        fallback = [make_tuple(WEATHER_SCHEMA, record) for record in weather_records(2, 3)]
        refused = [dict(weather_records(1, 5)[0], samplingtime="yesterday")]
        lists = [weather_records(2), weather_records(1, 2), fallback, refused,
                 weather_records(2, 5), weather_records(1, 7)]
        outcomes = engine.push_batches("weather", lists)
        assert outcomes[:3] == [2, 1, 2] and outcomes[4:] == [2, 1]
        assert type(outcomes[3]) is SchemaError and "'yesterday'" in str(outcomes[3])
        assert outcomes[3].__traceback__ is None
        # The lists before the fallback, the fallback alone, the lists after it.
        assert calls == [("append_rows", 3), ("append_batch", 2), ("append_rows", 3)]
        assert stream.snapshot()[3:5] == fallback
        serial, _, serial_handle = avg_wind_engine()
        for records in lists:
            try:
                serial.push_batch("weather", records)
            except SchemaError:
                pass
        assert engine.read(handle) == serial.read(serial_handle)
        assert stream.total_appended == 8

    def test_push_batch_is_push_batches_of_one_list(self):
        engine, stream, _ = avg_wind_engine()
        calls = self.counted(stream)
        assert engine.push_batch("weather", weather_records(3)) == 3
        with pytest.raises(SchemaError, match="'yesterday'"):
            engine.push_batch("weather", [dict(weather_records(1)[0], samplingtime="yesterday")])
        assert calls == [("append_rows", 3)]
        with pytest.raises(UnknownStreamError):
            engine.push_batches("nope", [weather_records(1)])

    def test_a_dispatch_that_raises_is_every_one_of_its_lists_error(self):
        engine, stream, _ = avg_wind_engine()
        engine.push_batch("weather", weather_records(2))
        huge = [dict(weather_records(1, 2)[0], winddirection=10**400)]
        refused = [dict(weather_records(1, 3)[0], samplingtime="yesterday")]
        outcomes = engine.push_batches(
            "weather", [weather_records(1, 2), huge, refused, weather_records(1, 4)])
        assert [type(outcome) for outcome in outcomes] == [
            OverflowError, OverflowError, SchemaError, OverflowError]
        assert outcomes[0] is outcomes[1] is outcomes[3]
        # The group's rows were appended before its dispatch raised.
        assert stream.total_appended == 5


class TestOverflowingAverage:
    @pytest.mark.xfail(strict=True, raises=OverflowError, reason=(
        "known defect: an INT value whose average overflows a float poisons the stream: "
        "every later push raises OverflowError and no query on it emits again"))
    @pytest.mark.parametrize("kind", [StreamEngine, StreamEngine.reference])
    def test_an_int_whose_average_overflows_a_float_does_not_poison_the_stream(self, kind):
        engine, _, handle = avg_wind_engine(kind)
        engine.push_batch("weather", weather_records(2))
        emitted = len(engine.read(handle))
        with pytest.raises(OverflowError):
            engine.push_batch("weather", [dict(weather_records(1, 2)[0], winddirection=10**400)])
        engine.push_batch("weather", weather_records(3, 3))
        assert len(engine.read(handle)) > emitted


class TestOutputStreamGainsAConsumer:
    def test_listener_and_subscriber_added_mid_run_see_every_later_tuple_once(self):
        engine = StreamEngine()
        engine.register_input_stream("s", SIMPLE)
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        output = engine.lookup(handle).output
        engine.push_batch("s", [{"x": 1}, {"x": 2}])          # nobody listening
        early, late_batches = [], []
        output.add_batch_listener(lambda batch: early.extend(t["x"] for t in batch))
        engine.push_batch("s", [{"x": 3}, {"x": -1}, {"x": 4}])
        output.add_batch_listener(lambda batch: late_batches.append([t["x"] for t in batch]))
        late = engine.subscribe(handle, from_start=False)
        engine.push_batch("s", [{"x": 5}, {"x": 6}])
        engine.push("s", {"x": 7})
        assert early == [3, 4, 5, 6, 7]
        assert late_batches == [[5, 6], [7]]
        assert [t["x"] for t in late.drain()] == [5, 6, 7]
        assert [t["x"] for t in engine.read(handle)] == [1, 2, 3, 4, 5, 6, 7]
