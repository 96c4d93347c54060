"""Census of what crosses a plan edge: a ``Batch``, and tuples are built
when someone asks for them.

A pushed list of records becomes one ``Batch`` of columns, which the
input stream retains unread and hands the plan as is.  A bound operator
is ``Batch -> Batch``: a filter narrows the selected rows, a map
re-labels columns, a window reads columns and emits one column per
aggregation.  A stream, input or output, keeps its rows unread as
columns and builds its tuples when a reader asks — one per retained row,
per stream — except for tuple listeners of its own, which share one
build inside the dispatch.  Pinned here so a per-row ``StreamTuple``
does not grow back at ingress, inside a node or at a sink nobody reads.
"""

import weakref

import repro.streams.tuples as tuples_module
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
from repro.streams.schema import Schema
from repro.streams.stream import INGEST_CHUNK
from repro.streams.tuples import Batch, StreamTuple

SCHEMA = Schema("s", [("ts", "timestamp"), ("x", "double"), ("i", "int"), ("tag", "string")])


def chain(*operators):
    return QueryGraph("s", list(operators))


def positive():
    return FilterOperator("x > 0")


def counting_constructor(monkeypatch):
    """Every ``StreamTuple`` built from here on, by schema name."""
    built = []
    construct = StreamTuple.__init__

    def counting(self, schema, values):
        built.append(schema.name)
        construct(self, schema, values)

    monkeypatch.setattr(StreamTuple, "__init__", counting)
    return built


def records(count):
    return [{"ts": n, "x": float(n % 5 - 1), "i": n, "tag": "a"} for n in range(count)]


def test_tuples_are_built_when_a_stream_is_read(monkeypatch):
    engine = StreamEngine()
    source = engine.register_input_stream("s", SCHEMA)
    windowed = engine.register_query(chain(
        positive(), MapOperator(["ts", "x"]),
        AggregateOperator(WindowSpec(WindowType.TUPLE, 3, 1), [AggregationSpec.parse("x:sum")]),
    ))
    mapped = [engine.register_query(chain(positive(), MapOperator(["x", "i"]))) for _ in range(2)]
    filtered = engine.register_query(chain(positive()))
    engine.lookup(mapped[1]).output.max_buffer = 2
    pushed = records(12)
    built = counting_constructor(monkeypatch)

    engine.push_batch("s", pushed)
    # Nobody listens and nobody has read: no tuple was built, at ingress,
    # in a filter, a map or the window, or at a sink.
    assert built == []

    kept = [(float(r["ts"]), r["x"], r["i"], r["tag"]) for r in pushed if r["x"] > 0]
    emissions = engine.read(windowed)
    assert [t["sumx"] for t in emissions] == [6.0] * (len(kept) - 2)
    assert len(built) == len(emissions)
    first_map, second_map = (engine.read(handle) for handle in mapped)
    assert [t.values for t in first_map] == [(x, i) for _, x, i, _ in kept]
    assert [t.values for t in second_map] == [(x, i) for _, x, i, _ in kept[-2:]]
    # One tuple per retained row per sink: two sinks on one node build
    # their own, and the rows a retention of two drops are never built.
    assert len(built) == len(emissions) + len(first_map) + 2
    assert engine.read(windowed) == emissions and len(built) == len(emissions) + len(first_map) + 2
    # A filter-only chain's rows are built when read, like any other.
    assert [t.values for t in engine.read(filtered)] == kept
    assert len(built) == len(emissions) + 2 * len(first_map) + 2
    # The input stream builds its rows when read, once.
    assert [t.values for t in source.snapshot()] == [
        (float(r["ts"]), r["x"], r["i"], r["tag"]) for r in pushed
    ]
    assert source.snapshot() == source.snapshot()
    assert len(built) == len(emissions) + 2 * len(first_map) + 2 + len(pushed)


def test_tuple_listeners_share_one_build(monkeypatch):
    engine = StreamEngine()
    source = engine.register_input_stream("s", SCHEMA)
    engine.register_query(chain(positive()))
    heard = []
    for _ in range(2):
        source.add_batch_listener(heard.append)
    built = counting_constructor(monkeypatch)
    engine.push_batch("s", records(5))
    assert heard[0] is heard[1] and len(heard[0]) == 5 == len(built)
    # The shared tuples are the retained ones: a read builds no more.
    assert source.snapshot() == heard[0] and len(built) == 5


def test_push_many_is_gone():
    assert not hasattr(StreamEngine, "push_many")


class Column(list):
    """A column that can be watched with a ``weakref``."""


class Rows(list):
    """A pushed batch that can be watched with a ``weakref``."""


def test_an_unread_output_is_bounded_and_keeps_nothing_of_the_push(monkeypatch):
    engine = StreamEngine()
    source = engine.register_input_stream("s", SCHEMA)
    sparse = engine.register_query(chain(FilterOperator("x > 0.9"), MapOperator(["ts", "x"])))
    output = engine.lookup(sparse).output
    output.max_buffer = 8
    listened = engine.register_query(chain(MapOperator(["i"])))
    heard = []
    engine.lookup(listened).output.add_batch_listener(heard.append)
    watched = []
    make_batch = Batch.of.__func__

    def watched_batch(cls, tuples):
        batch = make_batch(cls, tuples)
        batch.columns = [Column(column) for column in batch.columns]
        watched.extend(weakref.ref(column) for column in batch.columns)
        return batch

    monkeypatch.setattr(Batch, "of", classmethod(watched_batch))
    expected = []
    for push in range(3):
        rows = Rows(
            StreamTuple(SCHEMA, (float(n), (n * 37 % 100) / 100, n, "a"))
            for n in range(push * INGEST_CHUNK, (push + 1) * INGEST_CHUNK)
        )
        expected += [(t["ts"], t["x"]) for t in rows if t["x"] > 0.9]
        pushed = weakref.ref(rows)
        del watched[:]
        source.append_batch(rows)
        # A listener is handed tuples inside the dispatch.
        assert all(type(t) is StreamTuple for t in heard[-1])
        assert [t.values for t in heard[-1]] == [(t["i"],) for t in rows]
        del rows
        assert pushed() is None
        assert len(watched) == len(SCHEMA) and all(ref() is None for ref in watched)
        unread = output._unread  # one value list per field of (ts, x)
        assert len(unread) == 2 and all(len(values) <= 2 * output.max_buffer for values in unread)
        assert output.total_appended == len(expected) > 2 * output.max_buffer
    assert [t.values for t in engine.read(sparse)] == expected[-8:]
    assert output.total_appended == len(expected)


def test_a_batch_is_columns_and_selected_rows():
    rows = [StreamTuple(SCHEMA, (float(n), n / 2, n, "a")) for n in range(4)]
    batch = Batch.of(rows)
    assert set(Batch.__slots__) == {"columns", "rows"}
    assert batch.rows is None and len(batch) == 4
    assert batch.column(2) == (0, 1, 2, 3)
    narrowed = Batch(batch.columns, [1, 3])
    assert narrowed.column(1) == [0.5, 1.5]
    assert narrowed.to_tuples(SCHEMA) == [rows[1], rows[3]]
    relabelled = Batch([batch.columns[1]], [0, 2])
    projected = Schema("p", [("x", "double")])
    assert [t.values for t in relabelled.to_tuples(projected)] == [(0.0,), (1.0,)]
    assert len(Batch.of([])) == 0 and Batch.of([]).to_tuples(SCHEMA) == []


def test_the_row_to_column_pivot_is_gone():
    assert not hasattr(tuples_module, "extract_columns")
