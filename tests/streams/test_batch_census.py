"""Census of what crosses a plan edge: a ``Batch``, and tuples are built
once, at the sinks.

A bound operator is ``Batch -> Batch``: a filter narrows the selected
rows, a map re-labels columns, a window reads columns and builds one
tuple per emission.  The plan turns a node's output into tuples once,
shared by every sink on the node, and a chain that has only filtered
hands on the pushed tuple objects themselves.  Pinned here so a per-row
``StreamTuple`` does not grow back inside a node.
"""

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
from repro.streams.tuples import Batch, StreamTuple

SCHEMA = Schema("s", [("ts", "timestamp"), ("x", "double"), ("i", "int"), ("tag", "string")])


def chain(*operators):
    return QueryGraph("s", list(operators))


def positive():
    return FilterOperator("x > 0")


def test_tuples_are_built_once_at_the_sinks(monkeypatch):
    engine = StreamEngine()
    engine.register_input_stream("s", SCHEMA)
    windowed = engine.register_query(chain(
        positive(), MapOperator(["ts", "x"]),
        AggregateOperator(WindowSpec(WindowType.TUPLE, 3, 1), [AggregationSpec.parse("x:sum")]),
    ))
    mapped = [engine.register_query(chain(positive(), MapOperator(["x", "i"]))) for _ in range(2)]
    filtered = [engine.register_query(chain(positive())) for _ in range(2)]
    pushed = [
        StreamTuple(SCHEMA, (float(n), float(n % 5 - 1), n, "a")) for n in range(12)
    ]
    built = []
    construct = StreamTuple.__init__

    def counting(self, schema, values):
        built.append(schema.name)
        construct(self, schema, values)

    monkeypatch.setattr(StreamTuple, "__init__", counting)
    engine.push_batch("s", pushed)
    monkeypatch.undo()

    kept = [tup for tup in pushed if tup["x"] > 0]
    emissions = engine.read(windowed)
    first_map, second_map = (engine.read(handle) for handle in mapped)
    assert [t["sumx"] for t in emissions] == [6.0] * (len(kept) - 2)
    assert [t.values for t in first_map] == [(t["x"], t["i"]) for t in kept]
    # One tuple per window emission, one per row reaching the map's
    # sinks (two sinks, one node: built once, shared); the map feeding
    # the window and every filter build none, and ingest none.
    assert len(built) == len(emissions) + len(first_map)
    assert all(a is b for a, b in zip(first_map, second_map))
    for handle in filtered:
        outputs = engine.read(handle)
        assert len(outputs) == len(kept)
        assert all(out is tup for out, tup in zip(outputs, kept))


def test_a_batch_is_columns_selected_rows_and_the_tuples_it_came_as():
    rows = [StreamTuple(SCHEMA, (float(n), n / 2, n, "a")) for n in range(4)]
    batch = Batch.of(rows)
    assert set(Batch.__slots__) == {"columns", "rows", "tuples"}
    assert batch.rows is None and batch.tuples is rows and len(batch) == 4
    assert batch.column(2) == (0, 1, 2, 3)
    narrowed = Batch(batch.columns, [1, 3], batch.tuples)
    assert narrowed.column(1) == [0.5, 1.5]
    assert narrowed.to_tuples(SCHEMA) == [rows[1], rows[3]]
    assert all(a is b for a, b in zip(narrowed.to_tuples(SCHEMA), (rows[1], rows[3])))
    relabelled = Batch([batch.columns[1]], [0, 2])
    projected = Schema("p", [("x", "double")])
    assert [t.values for t in relabelled.to_tuples(projected)] == [(0.0,), (1.0,)]
    assert len(Batch.of([])) == 0 and Batch.of([]).to_tuples(SCHEMA) == []


def test_the_row_to_column_pivot_is_gone():
    assert not hasattr(tuples_module, "extract_columns")
