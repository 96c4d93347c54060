"""Tests for the stream engine, catalog and handles."""

import pytest

from repro.errors import EngineError, UnknownHandleError, UnknownStreamError
from repro.streams.catalog import StreamCatalog
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA, Schema

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
        engine.push_many("s", [{"x": v} for v in (1, 3, 5)])
        assert [t["x"] for t in engine.read(handle)] == [3, 5]

    def test_read_limit(self):
        engine = self.make_engine()
        handle = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        engine.push_many("s", [{"x": v} for v in range(1, 6)])
        assert [t["x"] for t in engine.read(handle, limit=2)] == [4, 5]

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
        engine.push_many("s", [{"x": v} for v in (1, 3)])
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

    def dual_run(self, build_queries, records=None, batch_via="push_batch"):
        """Run the same input per-tuple and batched; return both outputs."""
        records = records if records is not None else self.RECORDS
        outputs = []
        for mode in ("single", "batch"):
            engine = self.make_engine()
            handles = build_queries(engine)
            if mode == "single":
                for record in records:
                    engine.push("s", record)
            elif batch_via == "push_batch":
                assert engine.push_batch("s", records) == len(records)
            else:
                assert engine.push_many("s", records) == len(records)
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

    def test_push_many_uses_batched_path(self):
        single, batched = self.dual_run(
            lambda e: [e.register_query(make_windowed_graph())],
            batch_via="push_many",
        )
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

    def test_withdraw_mid_batch_matches_single_appends(self):
        """A query withdrawn while a batch is in flight behaves exactly
        as under single appends: it stops at the withdrawal point, and
        nothing crashes on its closed output stream."""
        results = []
        for mode in ("single", "batch"):
            engine = self.make_engine()
            # The withdrawer listener is attached to the source stream
            # *before* the victim query registers, so it fires first for
            # each tuple — including the marker that triggers withdrawal.
            source = engine.catalog.get("s")
            victim_box = {}

            def withdraw_on_marker(tup, engine=engine, victim_box=victim_box):
                if tup["x"] == 99:
                    engine.withdraw(victim_box["handle"])

            source.add_listener(withdraw_on_marker)
            victim = engine.register_query(
                QueryGraph("s").append(FilterOperator("x > 0"))
            )
            victim_box["handle"] = victim
            subscription = engine.subscribe(victim)
            records = [{"x": v} for v in (1, 2, 99, 3, 4)]
            if mode == "single":
                for record in records:
                    engine.push("s", record)
            else:
                engine.push_batch("s", records)
            results.append([t["x"] for t in subscription.drain()])
            with pytest.raises(UnknownHandleError):
                engine.read(victim)
        single, batched = results
        assert single == batched == [1, 2]

    @pytest.mark.parametrize(
        "new_engine", [StreamEngine, StreamEngine.reference], ids=["plan", "oracle"]
    )
    @pytest.mark.parametrize("change", ["register", "withdraw"])
    def test_push_equals_singleton_push_batch_when_dispatch_changes_queries(
        self, new_engine, change
    ):
        """Regression: a query registered by a per-tuple control listener
        while ``t`` is being dispatched saw ``t`` under ``push(t)`` but
        not under ``push_batch([t])``.  Listeners are snapshotted at
        dispatch start: the newcomer misses ``t`` either way, and a
        query withdrawn during ``t``'s dispatch never sees it."""
        results = {}
        for mode in ("push", "push_batch"):
            engine = new_engine()
            engine.register_input_stream("s", SIMPLE)
            graph = QueryGraph("s").append(FilterOperator("x > 0"))
            box = {}
            if change == "withdraw":
                box["handle"] = engine.register_query(graph)
                box["sub"] = engine.subscribe(box["handle"])

            def on_marker(tup, engine=engine, box=box, graph=graph):
                if tup["x"] != 99:
                    return
                if change == "register":
                    box["handle"] = engine.register_query(graph.fresh_copy())
                    box["sub"] = engine.subscribe(box["handle"])
                else:
                    engine.withdraw(box["handle"])

            engine.catalog.get("s").add_listener(on_marker)
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
