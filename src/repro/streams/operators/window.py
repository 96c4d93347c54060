"""Window-based aggregation box.

A window-based aggregation operator (paper Section 2.1) consists of a
sliding window — window *type* (tuple- or time-based), *size* and
*advance step* — plus the set of attributes and aggregate functions
computed over each window.

Tuple windows: window *i* covers input positions ``[i·step, i·step+size)``
and is emitted when its last tuple arrives.  Time windows: with ``t0`` the
timestamp of the first tuple, window *i* covers ``[t0+i·step,
t0+i·step+size)`` and is emitted once a tuple at or past the window's end
arrives (empty time windows emit nothing, matching StreamBase).

Window state is columnar: per-attribute value lists.  Every window, of
either type, is evaluated one way: each aggregation's ``compute`` over
the window's column values — for the built-ins a C-speed
``sum``/``min``/``max`` pass over ``size`` values, O(size) per emission
and cheaper than Python-level per-tuple upkeep at every window depth a
policy uses (``docs/performance.md`` records the sizing and the depth
where that stops holding).  A tuple window is a contiguous slice of its
columns; a time window selects its members by timestamp value, in
arrival order, whatever order the timestamps arrive in, and jumps over
a gap of empty windows in one step.  Outputs are bit-identical to the
oracle's row-buffer recompute (:mod:`repro.streams.reference`, which
the differential tests compare this module against).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, List, Optional, Tuple

from repro.errors import SchemaError, StreamError
from repro.streams.operators.aggregate import AggregateFunction, get_aggregate_function
from repro.streams.operators.base import BoundOperator, Operator
from repro.streams.schema import DataType, Field, Schema, _widener
from repro.streams.tuples import Batch, StreamTuple


class WindowType(enum.Enum):
    """Whether window size/step count tuples or time units."""

    TUPLE = "tuple"
    TIME = "time"

    @classmethod
    def parse(cls, text: str) -> "WindowType":
        normalized = text.strip().lower()
        aliases = {
            "tuple": cls.TUPLE, "tuples": cls.TUPLE,
            "time": cls.TIME, "seconds": cls.TIME, "second": cls.TIME,
        }
        if normalized not in aliases:
            raise StreamError(f"unknown window type {text!r}")
        return aliases[normalized]


class WindowSpec:
    """A sliding-window specification (type, size, advance step)."""

    __slots__ = ("window_type", "size", "step")

    def __init__(self, window_type: WindowType, size: int, step: int):
        # Written so that NaN fails too: every comparison with it is false.
        if not 0 < size < math.inf:
            raise StreamError(f"window size must be positive and finite, got {size}")
        if not 0 < step < math.inf:
            raise StreamError(
                f"window advance step must be positive and finite, got {step}"
            )
        if window_type is WindowType.TUPLE and not (
            type(size) is int and type(step) is int
        ):
            raise StreamError(
                f"a tuple window counts tuples: size and advance step must be "
                f"ints, got {size!r} and {step!r}"
            )
        self.window_type = window_type
        self.size = size
        self.step = step

    def refines(self, other: "WindowSpec") -> bool:
        """True when this window is a legal user refinement of *other*.

        Section 3.1's merge rule: the user window is acceptable only when
        window types match and the policy window's size and advance step
        are less than or equal to the user's — the user must not obtain
        finer-grained data than the policy permits.
        """
        return (
            self.window_type is other.window_type
            and other.size <= self.size
            and other.step <= self.step
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WindowSpec)
            and self.window_type is other.window_type
            and self.size == other.size
            and self.step == other.step
        )

    def __hash__(self) -> int:
        return hash((self.window_type, self.size, self.step))

    def __repr__(self) -> str:
        return f"WindowSpec({self.window_type.value}, size={self.size}, step={self.step})"


class AggregationSpec:
    """One ``attribute:function`` pair of a window aggregation.

    The paper's obligation value format is ``attribute-id:aggregate-function``
    (e.g. ``rainrate:avg``); user queries use ``function(attribute)``
    (e.g. ``avg(RainRate)``).  Both spellings parse here.
    """

    __slots__ = ("attribute", "function")

    def __init__(self, attribute: str, function: AggregateFunction):
        self.attribute = attribute.lower()
        self.function = function

    @classmethod
    def parse(cls, text: str) -> "AggregationSpec":
        stripped = text.strip()
        if "(" in stripped and stripped.endswith(")"):
            function_name, _, rest = stripped.partition("(")
            attribute = rest[:-1]
        elif ":" in stripped:
            attribute, _, function_name = stripped.partition(":")
        else:
            raise StreamError(
                f"cannot parse aggregation spec {text!r}; expected "
                f"'attribute:function' or 'function(attribute)'"
            )
        attribute = attribute.strip()
        function_name = function_name.strip()
        if not attribute or not function_name:
            raise StreamError(f"malformed aggregation spec {text!r}")
        return cls(attribute, get_aggregate_function(function_name))

    @property
    def key(self) -> Tuple[str, str]:
        """Identity used for merge intersection: (attribute, function)."""
        return (self.attribute, self.function.name)

    def to_obligation_value(self) -> str:
        return f"{self.attribute}:{self.function.name}"

    def to_call_syntax(self) -> str:
        return f"{self.function.name}({self.attribute})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AggregationSpec) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"AggregationSpec({self.to_obligation_value()!r})"


class AggregateOperator(Operator):
    """Apply aggregate functions over a sliding window, recomputed per
    emission from columnar buffers — see the module docstring.  The
    buffers belong to a :meth:`bind`, never to the declaration.
    """

    kind = "aggregate"
    #: Window contents are history-dependent (tuple-window alignment, the
    #: time-window origin ``t0``), so the shared plan binds a node of its
    #: own instead of sharing one that has consumed input.
    stateful = True

    def __init__(
        self,
        window: WindowSpec,
        aggregations: Iterable[AggregationSpec],
        time_attribute: Optional[str] = None,
    ):
        specs = list(aggregations)
        if not specs:
            raise StreamError("aggregation operator needs at least one attribute:function")
        seen = set()
        unique: List[AggregationSpec] = []
        for spec in specs:
            if spec.key not in seen:
                seen.add(spec.key)
                unique.append(spec)
        self.window = window
        self.aggregations: Tuple[AggregationSpec, ...] = tuple(unique)
        self.time_attribute = time_attribute.lower() if time_attribute else None
        #: The distinct aggregated attributes — one window column each,
        #: shared by the specs over it — and each spec's column index.
        self._columns = tuple(dict.fromkeys(spec.attribute for spec in unique))
        self._column_of = tuple(self._columns.index(spec.attribute) for spec in unique)

    # -- schema ------------------------------------------------------------

    def output_schema(self, input_schema: Schema) -> Schema:
        fields: List[Field] = []
        names = set()
        for spec in self.aggregations:
            field = input_schema.field(spec.attribute)
            out = spec.function.result_field(field)
            if out.name.lower() in names:
                raise SchemaError(f"duplicate aggregation output {out.name!r}")
            names.add(out.name.lower())
            fields.append(out)
        if self.window.window_type is WindowType.TIME:
            self._time_field(input_schema)  # validate presence
        return Schema(f"{input_schema.name}_agg", fields)

    def _time_field(self, schema: Schema) -> Field:
        if self.time_attribute:
            field = schema.field(self.time_attribute)
            # A DOUBLE may hold NaN or an infinity, which no window bound
            # can be compared with; a TIMESTAMP is refused them at ingest.
            if field.dtype not in (DataType.TIMESTAMP, DataType.INT):
                raise SchemaError(
                    f"time attribute {field.name!r} is {field.dtype.value}: a time "
                    f"window reads a TIMESTAMP or INT column; declare it TIMESTAMP"
                )
            return field
        for field in schema:
            if field.dtype is DataType.TIMESTAMP:
                return field
        raise SchemaError(
            f"time-based window needs a timestamp attribute in schema "
            f"{schema.name!r} (or an explicit time_attribute)"
        )

    # -- execution ----------------------------------------------------------

    def bind(self, input_schema: Schema, output_schema: Schema) -> BoundOperator:
        """A fresh, empty window: one buffer extension and one emission
        sweep per batch, attribute positions resolved here."""
        factory = (
            _ColumnarTupleWindow
            if self.window.window_type is WindowType.TUPLE
            else _ColumnarTimeWindow
        )
        return factory(self, input_schema, output_schema).process

    def describe(self) -> str:
        aggs = ", ".join(spec.to_call_syntax() for spec in self.aggregations)
        return (
            f"{aggs} OVER {self.window.window_type.value} window "
            f"SIZE {self.window.size} ADVANCE {self.window.step}"
        )


class _ColumnarWindow:
    """Shared plumbing of the columnar window paths.

    The window's content lives in one plain value list per *distinct*
    aggregated attribute (specs over the same attribute share a
    column) — a ring buffer realised as an occasionally-trimmed list,
    extended from the incoming batch's columns.  Attribute positions and
    the output coercion are resolved once, for the two schemas the
    window was bound between; each emission is built as a tuple here,
    once, and handed on as it is.
    """

    __slots__ = ("size", "step", "cols", "computes", "positions", "output_schema", "widen")

    def __init__(
        self, operator: AggregateOperator, input_schema: Schema, output_schema: Schema
    ):
        self.size = operator.window.size
        self.step = operator.window.step
        self.cols: List[List] = [[] for _ in operator._columns]
        #: Per spec ``(compute, column)``, bound once.  A window is never
        #: empty, so this is the function itself, without the empty-input
        #: guard of :meth:`AggregateFunction.compute`.
        self.computes = [
            (spec.function._compute, self.cols[index])
            for spec, index in zip(operator.aggregations, operator._column_of)
        ]
        self.positions = input_schema.positions(operator._columns)
        self.output_schema = output_schema
        self.widen = _widener(output_schema)

    def _coerced(self, values) -> StreamTuple:
        """The output tuple for *values*, each coerced to its field's
        type (an int sum widens into a DOUBLE field; a third-party
        function's mistyped result raises ``SchemaError``)."""
        return StreamTuple(self.output_schema, self.widen(values))


class _ColumnarTupleWindow(_ColumnarWindow):
    """Tuple-window state: columnar buffers, one slice per window.

    ``win_start`` is the logical position of the pending window's first
    tuple, ``base`` the logical position of ``cols[*][0]``.  Each
    complete window is one ``compute`` per aggregation over its column
    slice, bit-identical to the oracle.
    """

    __slots__ = ("base", "count", "win_start")

    def __init__(
        self, operator: AggregateOperator, input_schema: Schema, output_schema: Schema
    ):
        super().__init__(operator, input_schema, output_schema)
        self.base = 0
        self.count = 0
        self.win_start = 0

    def process(self, batch: Batch) -> Batch:
        for col, position in zip(self.cols, self.positions):
            col.extend(batch.column(position))
        self.count += len(batch)
        count, size, base = self.count, self.size, self.base
        starts = range(self.win_start - base, count - base - size + 1, self.step)
        coerced, computes = self._coerced, self.computes
        outputs = [
            coerced([compute(col[low:low + size]) for compute, col in computes])
            for low in starts
        ]
        self.win_start += len(starts) * self.step
        # Trim the dead prefix no window can need again.  The base can
        # only advance to positions that already exist (a step>size
        # window's start may lie beyond the last arrival).
        new_base = self.win_start if self.win_start < count else count
        if new_base > base:
            for col in self.cols:
                del col[: new_base - base]
            self.base = new_base
        return Batch.of(outputs)


class _ColumnarTimeWindow(_ColumnarWindow):
    """Time-window state: columnar buffers in arrival order.

    Window membership is by timestamp value, exactly the oracle's: a
    closing window selects every retained entry whose timestamp falls in
    ``[start, end)``, in arrival order, whatever order the timestamps
    came in.  Entries are appended one at a time, after the windows
    their arrival closes (a batch-mate appended early could otherwise
    leak into a window closing before it arrived).  Stale entries are
    compacted away in amortized sweeps instead of the seed's per-tuple
    rebuild.
    """

    __slots__ = ("tpos", "ts", "t0", "next_idx", "compact_at")

    def __init__(
        self, operator: AggregateOperator, input_schema: Schema, output_schema: Schema
    ):
        super().__init__(operator, input_schema, output_schema)
        self.tpos = input_schema.position(operator._time_field(input_schema).name)
        self.ts: List = []
        self.t0: Optional[float] = None
        self.next_idx = 0
        self.compact_at = 64

    def process(self, batch: Batch) -> Batch:
        size, step = self.size, self.step
        ts_buffer = self.ts
        cols = self.cols
        arrivals = [batch.column(position) for position in self.positions]
        outputs: List[StreamTuple] = []
        for row, timestamp in enumerate(batch.column(self.tpos)):
            if self.t0 is None:
                self.t0 = timestamp
            t0 = self.t0
            while True:
                start = t0 + self.next_idx * step
                end = start + size
                if timestamp < end:
                    break
                selected = [
                    index for index, value in enumerate(ts_buffer)
                    if start <= value < end
                ]
                if selected:
                    outputs.append(self._emit_selected(selected))
                    self.next_idx += 1
                    continue
                # Every retained timestamp lies below the end of the
                # window its own arrival left pending, so an empty
                # window has nothing retained at or past its start, and
                # neither has any later window this arrival closes: jump
                # past all of them at once (a gap of days would
                # otherwise be walked window by window).  The back-off
                # keeps every skipped window's end, by the same
                # ``t0 + k*step`` formula, at or below the arrival; an
                # estimate that falls short just jumps again.
                index = self.next_idx + 1 + int((timestamp - end) // step)
                while t0 + (index - 1) * step + size > timestamp:
                    index -= 1
                self.next_idx = index
            ts_buffer.append(timestamp)
            for col, values in zip(cols, arrivals):
                col.append(values[row])
            # Amortized compaction: stale entries can never match the
            # membership predicate (every future window starts at or
            # after ``earliest``), so deferring their removal is
            # output-neutral; the doubling threshold bounds total
            # compaction work by the stream length.
            if len(ts_buffer) >= self.compact_at:
                earliest = t0 + self.next_idx * step
                keep = [
                    index for index, value in enumerate(ts_buffer)
                    if value >= earliest
                ]
                if len(keep) < len(ts_buffer):
                    ts_buffer[:] = [ts_buffer[index] for index in keep]
                    for col in cols:
                        col[:] = [col[index] for index in keep]
                self.compact_at = max(64, 2 * len(ts_buffer))
        return Batch.of(outputs)

    def _emit_selected(self, selected) -> StreamTuple:
        values = [
            compute([col[index] for index in selected])
            for compute, col in self.computes
        ]
        return self._coerced(values)
