"""The oracle: the seed's execution semantics, whole and in one place.

The other half of every differential test: queries executed the way the
seed did — filter conditions interpreted over the expression AST,
projection by name (``StreamTuple.project``), window aggregation on a
row buffer recomputed per window, each tuple walked through the chain
one box at a time, each query its own ``Stream`` batch listener.

It shares with production only what both sides agree on by definition:
``Stream`` / ``Schema`` / ``StreamTuple``, the operators' declarations
(condition, attributes, window spec and schema propagation, read off the
production operator), ``expr.evaluate``, ``AggregateFunction.compute``
and the engine's catalog/handle bookkeeping.  It shares no dispatch,
window or compile code — never ``StreamPlan``, ``repro.expr.compile`` or
the columnar window classes — so a bug there cannot hide by appearing on
both sides.  ``Stream``'s batch-listener contract is this module's
dispatch — one listener per query; the plan gives every query the same
contract behind one listener.

Production imports this module only in ``StreamEngine.reference()``.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, List, Optional, Sequence

from repro.expr.evaluate import evaluate
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators.base import Operator
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import AggregateOperator, WindowType
from repro.streams.schema import Schema
from repro.streams.stream import Stream
from repro.streams.tuples import StreamTuple, make_tuple


class _ReferenceOperator(Operator):
    """Seed execution of one production operator's declaration."""

    def __init__(self, spec: Operator):
        self.spec = spec

    def output_schema(self, input_schema: Schema) -> Schema:
        return self.spec.output_schema(input_schema)

    def describe(self) -> str:
        return self.spec.describe()


class ReferenceFilter(_ReferenceOperator):
    """Filter by walking the condition AST per tuple."""

    def process(self, tup: StreamTuple, output_schema: Schema) -> List[StreamTuple]:
        return [tup] if evaluate(self.spec.condition, tup) else []


class ReferenceMap(_ReferenceOperator):
    """Project by case-insensitive name lookup per attribute."""

    def process(self, tup: StreamTuple, output_schema: Schema) -> List[StreamTuple]:
        return [tup.project(output_schema)]


class ReferenceAggregate(_ReferenceOperator):
    """Window aggregation on a row buffer, recomputed per window."""

    def __init__(self, spec: AggregateOperator):
        super().__init__(spec)
        self.window = spec.window
        self.aggregations = spec.aggregations
        self._buffer: List[StreamTuple] = []
        self._count = 0
        self._next_emit = self.window.size  # tuple windows
        self._t0: Optional[float] = None    # time windows
        self._next_window_index = 0
        #: Buffer length that triggers the next amortized prune of the
        #: time-window path (doubles whenever a prune removes nothing,
        #: keeping total prune work linear in the stream).
        self._prune_at = 64

    def process(self, tup: StreamTuple, output_schema: Schema) -> List[StreamTuple]:
        return self.process_batch((tup,), output_schema)

    def process_batch(
        self, tuples: Sequence[StreamTuple], output_schema: Schema
    ) -> List[StreamTuple]:
        if not tuples:
            return []
        if self.window.window_type is WindowType.TUPLE:
            return self._process_tuple_window_batch(tuples, output_schema)
        return self._process_time_window_batch(tuples, output_schema)

    def _process_tuple_window_batch(
        self, tuples: Sequence[StreamTuple], output_schema: Schema
    ) -> List[StreamTuple]:
        buffer = self._buffer
        buffer.extend(tuples)
        self._count += len(tuples)
        count = self._count
        size, step = self.window.size, self.window.step
        #: Logical stream position of buffer[0].  Every still-unemitted
        #: window starts at or after it: emission keeps _next_emit no
        #: more than one step behind, and the tail retained below always
        #: covers the next window.
        base = count - len(buffer)
        outputs: List[StreamTuple] = []
        while self._next_emit <= count:
            start = self._next_emit - size - base
            outputs.append(self._emit(buffer[start : start + size], output_schema))
            self._next_emit += step
        # Retain only the tail a future window can still need.
        if len(buffer) > size:
            del buffer[: len(buffer) - size]
        return outputs

    def _process_time_window_batch(
        self, tuples: Sequence[StreamTuple], output_schema: Schema
    ) -> List[StreamTuple]:
        # All tuples of one dispatch share a schema, so the time
        # attribute resolves to one value-vector position for the batch.
        schema = tuples[0].schema
        time_position = schema.position(self.spec._time_field(schema).name)
        size, step = self.window.size, self.window.step
        outputs: List[StreamTuple] = []
        buffer = self._buffer
        for tup in tuples:
            timestamp = tup.values[time_position]
            if self._t0 is None:
                self._t0 = timestamp
            # Close every window that ends at or before this timestamp.
            while True:
                start = self._t0 + self._next_window_index * step
                end = start + size
                if timestamp < end:
                    break
                window_tuples = [
                    t for t in buffer
                    if start <= t.values[time_position] < end
                ]
                if window_tuples:
                    outputs.append(self._emit(window_tuples, output_schema))
                self._next_window_index += 1
            buffer.append(tup)
            # Prune tuples no future window can cover — amortized, not
            # per-tuple: a stale tuple (timestamp below every future
            # window's start) can never match the emission predicate
            # above, so deferring its removal cannot change the output,
            # and the doubling threshold makes total prune work linear
            # in the stream instead of the seed's quadratic per-tuple
            # rebuild, while retaining at most ~2x the live tail.
            if len(buffer) >= self._prune_at:
                earliest_needed = self._t0 + self._next_window_index * step
                buffer[:] = [
                    t for t in buffer
                    if t.values[time_position] >= earliest_needed
                ]
                self._prune_at = max(64, 2 * len(buffer))
        return outputs

    def _emit(self, window_tuples: Sequence[StreamTuple], output_schema: Schema) -> StreamTuple:
        values = []
        for spec in self.aggregations:
            column = [t[spec.attribute] for t in window_tuples]
            values.append(spec.function.compute(column))
        coerced = tuple(
            field.dtype.coerce(value) for field, value in zip(output_schema, values)
        )
        return StreamTuple(output_schema, coerced)


_SEED_OPERATORS = {
    FilterOperator: ReferenceFilter,
    MapOperator: ReferenceMap,
    AggregateOperator: ReferenceAggregate,
}


def reference_operator(operator: Operator) -> Operator:
    """The seed implementation of a production operator's declaration.

    Exact-type lookup: a subclass may override behaviour, and the oracle
    runs no code but its own, so anything else is refused.
    """
    seed = _SEED_OPERATORS.get(type(operator))
    if seed is None:
        raise TypeError(f"the oracle has no seed semantics for {operator!r}")
    return seed(operator)


class ReferencePipeline:
    """One query graph, executed by walking each tuple through the chain
    one box at a time."""

    def __init__(self, graph: QueryGraph, input_schema: Schema):
        schemas = graph.schema_trace(input_schema)
        self.output_schema = schemas[-1]
        self._stages = [
            (reference_operator(operator), out_schema)
            for operator, out_schema in zip(graph.operators, schemas[1:])
        ]

    def process(self, tup: StreamTuple) -> List[StreamTuple]:
        """Push one tuple through the whole chain; return emitted tuples."""
        batch = [tup]
        for operator, out_schema in self._stages:
            next_batch: List[StreamTuple] = []
            for item in batch:
                next_batch.extend(operator.process(item, out_schema))
            if not next_batch:
                return []
            batch = next_batch
        return batch


class RegisteredQuery:
    """A live continuous query: pipeline + output stream + handle.

    The query subscribes to its source as a *batch listener*; every
    tuple of every batch still walks the chain on its own.
    """

    def __init__(
        self,
        handle: StreamHandle,
        pipeline: ReferencePipeline,
        output: Stream,
        source: Stream,
    ):
        self.handle = handle
        self.pipeline = pipeline
        self.output = output
        self._source = source
        self._listener = self._on_batch
        self.active = True
        source.add_batch_listener(self._listener)

    def _on_batch(self, tuples: Sequence[StreamTuple]) -> None:
        # The guard makes mid-dispatch withdrawal safe whoever calls:
        # a withdrawn query must neither process tuples nor append to
        # its closed output.
        if not self.active:
            return
        outputs: List[StreamTuple] = []
        for tup in tuples:
            outputs.extend(self.pipeline.process(tup))
        if outputs:
            self.output.append_batch(outputs)

    def withdraw(self) -> None:
        """Detach from the input stream and close the output."""
        if self.active:
            self._source.remove_batch_listener(self._listener)
            self.output.close()
            self.active = False

    @property
    def output_schema(self) -> Schema:
        return self.pipeline.output_schema

    def __repr__(self) -> str:
        state = "active" if self.active else "withdrawn"
        return f"RegisteredQuery({self.handle.uri}, {state})"


class ReferenceEngine(StreamEngine):
    """The engine surface over per-query reference pipelines: catalog
    and handle bookkeeping are inherited, no plan is ever built (so
    ``plan_stats()`` is empty), and ingress is the seed's: one tuple per
    record, then ``append_batch``."""

    def push_batch(self, stream_name: str, records: Iterable) -> int:
        """:func:`make_tuple` per record (a tuple: its values through
        :meth:`DataType.coerce`), a list converted whole, then ``extend``."""
        stream = self.catalog.get(stream_name)

        def convert(record) -> StreamTuple:
            if not isinstance(record, StreamTuple):
                return make_tuple(stream.schema, record)
            values = tuple(f.dtype.coerce(v) for f, v in zip(stream.schema, record.values))
            same = all(map(is_, values, record.values))
            return record if same else StreamTuple(record.schema, values)

        listed = isinstance(records, (list, tuple))
        return stream.extend([convert(r) for r in records] if listed else map(convert, records))

    def _install(
        self, source: Stream, graph: QueryGraph, handle: StreamHandle
    ) -> RegisteredQuery:
        pipeline = ReferencePipeline(graph, source.schema)
        output = Stream(handle.query_id, pipeline.output_schema)
        return RegisteredQuery(handle, pipeline, output, source)
