"""Differential tests: compiled/batched stream execution ≡ interpreted.

Mirrors ``test_prop_pdp_equivalence.py`` for the stream side.  Three
layers must be decision- and output-identical:

- **expression layer**: the schema-compiled batch mask of
  :mod:`repro.expr.compile` (the form a bound filter executes) against
  the AST interpreter of :mod:`repro.expr.evaluate`, over random
  schemas, random type-correct conditions, and random tuples;
- **pipeline layer**: one random operator chain registered on
  ``StreamEngine()`` and fed a random batch partition, against the same
  engine fed tuple-at-a-time, and against ``StreamEngine.reference()``'s
  per-tuple chain walker over seed filter/map/window operators —
  including stateful window aggregation, where batching must not
  disturb emission points;
- **engine layer**: a default (compiled) :class:`StreamEngine` fed via
  ``push_batch`` under a random batch partition against a
  ``StreamEngine.reference()`` fed tuple-at-a-time, across multi-query
  fan-out, withdrawal from a sibling query's dispatch and empty-batch
  edges.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import UnknownHandleError
from repro.expr.ast import (
    AndExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)
from repro.expr.compile import compile_batch
from repro.expr.evaluate import evaluate
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
from repro.streams.tuples import make_tuple
from tests.conftest import engine_outputs, production_and_oracle

# -- expression-layer strategies ---------------------------------------------------

FIELD_POOL = (
    ("SamplingTime", DataType.TIMESTAMP),
    ("temp", DataType.DOUBLE),
    ("Count", DataType.INT),
    ("x1", DataType.DOUBLE),
    ("tag", DataType.STRING),
    ("device_ID", DataType.STRING),
)

STRINGS = ("a", "b", "weather", "GPS", "")

schemas = st.lists(
    st.sampled_from(FIELD_POOL), min_size=1, max_size=6, unique_by=lambda f: f[0]
).map(lambda fields: Schema("rnd", [Field(n, d) for n, d in fields]))

NUMERIC_OPS = tuple(Operator)
EQUALITY_OPS = (Operator.EQ, Operator.NE)

numbers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
)


def leaves_for(schema):
    """Strategy for type-correct leaves over *schema*'s fields."""
    def leaf(field):
        if field.dtype is DataType.STRING:
            return st.builds(
                SimpleExpression,
                st.just(field.name),
                st.sampled_from(EQUALITY_OPS),
                st.sampled_from(STRINGS),
            )
        return st.builds(
            SimpleExpression,
            st.just(field.name),
            st.sampled_from(NUMERIC_OPS),
            numbers,
        )

    return st.one_of([leaf(field) for field in schema])


def expressions_for(schema):
    return st.recursive(
        st.one_of(st.just(TrueExpression()), leaves_for(schema)),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: AndExpression(tuple(cs))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: OrExpression(tuple(cs))
            ),
            children.map(NotExpression),
        ),
        max_leaves=8,
    )


def tuples_for(schema, count):
    def value(field):
        if field.dtype is DataType.STRING:
            return st.sampled_from(STRINGS)
        if field.dtype is DataType.INT:
            return st.integers(min_value=-50, max_value=50)
        return numbers

    row = st.fixed_dictionaries({field.name: value(field) for field in schema})
    return st.lists(row, min_size=0, max_size=count).map(
        lambda rows: [make_tuple(schema, row) for row in rows]
    )


@st.composite
def expression_cases(draw):
    schema = draw(schemas)
    expression = draw(expressions_for(schema))
    batch = draw(tuples_for(schema, 12))
    return schema, expression, batch


class TestExpressionEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(case=expression_cases())
    def test_compiled_matches_interpreter(self, case):
        schema, expression, batch = case
        mask = compile_batch(expression, schema)
        assert mask(batch) == [evaluate(expression, tup) for tup in batch]


# -- pipeline / engine strategies --------------------------------------------------

PIPE_SCHEMA = Schema(
    "s",
    [
        Field("t", DataType.TIMESTAMP),
        Field("x", DataType.DOUBLE),
        Field("y", DataType.DOUBLE),
        Field("tag", DataType.STRING),
    ],
)

pipe_conditions = st.sampled_from(
    [
        None,
        "x > 0",
        "x <= 20 AND y > -30",
        "tag = 'a' OR x > 25",
        "NOT (x > 10)",
        "TRUE",
    ]
)
pipe_maps = st.sampled_from([None, ("t", "x"), ("x",), ("t", "x", "y")])
pipe_windows = st.sampled_from(
    [None, (WindowType.TUPLE, 3, 2), (WindowType.TUPLE, 5, 5), (WindowType.TIME, 4, 2)]
)


def build_graph(condition, map_attrs, window):
    graph = QueryGraph("s")
    if condition:
        graph.append(FilterOperator(condition))
    if map_attrs:
        graph.append(MapOperator(list(map_attrs)))
    if window:
        window_type, size, step = window
        graph.append(
            AggregateOperator(
                WindowSpec(window_type, size, step),
                [AggregationSpec.parse("x:sum"), AggregationSpec.parse("x:count")],
                time_attribute="t" if window_type is WindowType.TIME else None,
            )
        )
    return graph


def records(values):
    return [
        {"t": float(i), "x": float(v), "y": float(-v), "tag": "a" if v % 2 else "b"}
        for i, v in enumerate(values)
    ]


def partition(items, cut_points):
    """Split *items* into batches at *cut_points* (may yield empty batches)."""
    cuts = sorted(set(cut_points))
    batches, last = [], 0
    for cut in cuts:
        batches.append(items[last:cut])
        last = cut
    batches.append(items[last:])
    return batches


class TestPipelineEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        condition=pipe_conditions,
        map_attrs=pipe_maps,
        window=pipe_windows,
        values=st.lists(st.integers(min_value=-40, max_value=40), max_size=40),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
    )
    def test_batched_matches_per_tuple_and_reference(
        self, condition, map_attrs, window, values, cuts
    ):
        if map_attrs and window:
            if "x" not in map_attrs:
                map_attrs = map_attrs + ("x",)
            if window[0] is WindowType.TIME and "t" not in map_attrs:
                map_attrs = map_attrs + ("t",)
        graph = build_graph(condition, map_attrs, window)
        tuples = [make_tuple(PIPE_SCHEMA, r) for r in records(values)]

        singles = [[tup] for tup in tuples]
        expected = engine_outputs(StreamEngine(), graph, PIPE_SCHEMA, singles)
        got, interpreted = production_and_oracle(
            graph, PIPE_SCHEMA, partition(tuples, cuts)
        )

        as_values = lambda out: [t.values for t in out]
        assert as_values(got) == as_values(expected) == as_values(interpreted)


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-40, max_value=40), max_size=30),
        cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=3),
        fanout=st.integers(min_value=1, max_value=5),
    )
    def test_compiled_batched_engine_matches_reference(self, values, cuts, fanout):
        recs = records(values)
        outputs = {}
        for mode in ("reference", "compiled"):
            engine = (
                StreamEngine.reference() if mode == "reference" else StreamEngine()
            )
            engine.register_input_stream("s", PIPE_SCHEMA)
            handles = [
                engine.register_query(
                    QueryGraph("s").append(FilterOperator(f"x > {i * 5}"))
                )
                for i in range(fanout)
            ]
            handles.append(
                engine.register_query(
                    build_graph("x > -20", ("t", "x"), (WindowType.TUPLE, 3, 2))
                )
            )
            if mode == "reference":
                for record in recs:
                    engine.push("s", record)
            else:
                for batch in partition(recs, cuts):
                    engine.push_batch("s", batch)
            outputs[mode] = [
                [t.values for t in engine.read(handle)] for handle in handles
            ]
        assert outputs["compiled"] == outputs["reference"]


class TestBatchEdges:
    def make_engine(self):
        engine = StreamEngine()
        engine.register_input_stream("s", PIPE_SCHEMA)
        return engine

    def test_empty_batch_through_engine(self):
        engine = self.make_engine()
        handles = [
            engine.register_query(graph)
            for graph in (
                QueryGraph("s").append(FilterOperator("x > 0")),
                build_graph("x > 0", ("t", "x"), (WindowType.TUPLE, 2, 1)),
            )
        ]
        assert engine.push_batch("s", []) == 0
        assert [engine.read(handle) for handle in handles] == [[], []]

    def sibling_withdrawal_run(self, push):
        """Drive a run where query 1's output dispatch withdraws query 2;
        *push* feeds the engine; returns the victim's drained output."""
        engine = self.make_engine()
        victim_box = {}

        first = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))

        def withdraw_victim(batch, engine=engine, victim_box=victim_box):
            handle = victim_box.pop("handle", None)
            if handle is not None:
                engine.withdraw(handle)

        # first's OUTPUT listener withdraws the victim as soon as first
        # emits — i.e. from within the source stream's dispatch.
        engine.lookup(first).output.add_batch_listener(withdraw_victim)

        victim = engine.register_query(QueryGraph("s").append(FilterOperator("x > 0")))
        victim_box["handle"] = victim
        subscription = engine.subscribe(victim)

        push(engine)
        engine.push_batch("s", records([4, 5]))  # must not crash

        try:
            engine.read(victim)
            assert False, "withdrawn handle must not resolve"
        except UnknownHandleError:
            pass
        return [t["x"] for t in subscription.drain()]

    def test_withdraw_from_sibling_query_dispatch(self):
        """A query withdrawn during another query's batch dispatch emits
        nothing further (its guard-equivalent), exactly as under single
        appends, and nothing crashes on its closed output."""
        recs = records([1, 2, 3])
        batched = self.sibling_withdrawal_run(
            lambda engine: engine.push_batch("s", recs)
        )
        single = self.sibling_withdrawal_run(
            lambda engine: [engine.push("s", r) for r in recs]
        )
        assert batched == single == []

    def test_push_and_singleton_push_batch_identical(self):
        """push(t) and push_batch([t]) must be output-identical even when
        a batch listener withdraws a query mid-dispatch."""
        recs = records([7])
        assert self.sibling_withdrawal_run(
            lambda engine: engine.push("s", recs[0])
        ) == self.sibling_withdrawal_run(
            lambda engine: engine.push_batch("s", [recs[0]])
        )
