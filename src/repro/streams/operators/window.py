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

Window state is columnar: per-attribute ring buffers (plain value lists
with a logical base offset) filled batch-at-a-time.  Every window, of
either type, is evaluated one way: each aggregation's ``compute`` over
the window's column slice — for the built-ins a C-speed
``sum``/``min``/``max`` pass over ``size`` values, O(size) per emission
and cheaper than Python-level per-tuple upkeep at every window depth a
policy uses (``docs/performance.md`` records the sizing and the depth
where that stops holding).  Time windows find their slice through
monotonic buffer pointers, with a scan fallback for out-of-order
timestamp streams.  Outputs are bit-identical to the oracle's row-buffer
recompute (:mod:`repro.streams.reference`, which the differential tests
compare this module against).
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError, StreamError
from repro.streams.operators.aggregate import AggregateFunction, get_aggregate_function
from repro.streams.operators.base import BoundOperator, Operator
from repro.streams.schema import DataType, Field, Schema, _widener
from repro.streams.tuples import StreamTuple, extract_columns


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
        if size <= 0:
            raise StreamError(f"window size must be positive, got {size}")
        if step <= 0:
            raise StreamError(f"window advance step must be positive, got {step}")
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
            if field.dtype not in (DataType.TIMESTAMP, DataType.DOUBLE, DataType.INT):
                raise SchemaError(
                    f"time attribute {field.name!r} must be numeric/timestamp"
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
    column), addressed by logical stream position minus ``base`` —
    a ring buffer realised as an occasionally-trimmed list.  Attribute
    positions and the output coercion are resolved once, for the two
    schemas the window was bound between.
    """

    __slots__ = ("size", "step", "cols", "computes", "positions", "output_schema", "widen")

    def __init__(
        self, operator: AggregateOperator, input_schema: Schema, output_schema: Schema
    ):
        self.size = operator.window.size
        self.step = operator.window.step
        self.cols: List[List] = [[] for _ in operator._columns]
        #: Per spec ``(compute, column)``, bound once.
        self.computes = [
            (spec.function.compute, self.cols[index])
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

    def _emit_slice(self, low: int, high: int) -> StreamTuple:
        return self._coerced([compute(col[low:high]) for compute, col in self.computes])


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

    def process(self, tuples: Sequence[StreamTuple]) -> List[StreamTuple]:
        for col, new_values in zip(self.cols, extract_columns(tuples, self.positions)):
            col.extend(new_values)
        self.count += len(tuples)
        count, size, base = self.count, self.size, self.base
        starts = range(self.win_start - base, count - base - size + 1, self.step)
        outputs = [self._emit_slice(low, low + size) for low in starts]
        self.win_start += len(starts) * self.step
        # Trim the dead prefix no window can need again.  The base can
        # only advance to positions that already exist (a step>size
        # window's start may lie beyond the last arrival).
        new_base = self.win_start if self.win_start < count else count
        if new_base > base:
            for col in self.cols:
                del col[: new_base - base]
            self.base = new_base
        return outputs


class _ColumnarTimeWindow(_ColumnarWindow):
    """Time-window state: columnar buffers + pointer-based eviction.

    While timestamps arrive monotonically (the overwhelmingly common
    case — and the only order the paper's sources produce), a closing
    window is a contiguous column slice ``[low, high)`` found by two
    pointers that only ever move forward, so eviction is O(1) amortized
    and emission reads one slice per aggregation — no per-tuple buffer
    rebuild, no per-tuple name lookups.  The first out-of-order
    timestamp drops the instance into a scan mode that reproduces the
    seed semantics exactly (membership by value, arrival order
    preserved), with amortized compaction instead of the seed's
    per-tuple rebuild.

    Scan mode is not sticky: whenever a compaction sweep leaves the
    retained buffer in ascending timestamp order (in particular when it
    drains the disordered backlog entirely), the instance re-arms the
    monotonic pointer path — on a sorted buffer, value-based membership
    and contiguous pointer slices select identical windows, so the
    switch is output-neutral, and the next late timestamp simply drops
    back to scan mode.  A transient burst of disorder therefore costs
    O(buffer) scans only while its evidence is still buffered, instead
    of pinning the stream to scan mode forever.
    """

    __slots__ = (
        "tpos", "ts", "base", "low", "high",
        "t0", "next_idx", "monotonic", "last_ts", "compact_at",
    )

    def __init__(
        self, operator: AggregateOperator, input_schema: Schema, output_schema: Schema
    ):
        super().__init__(operator, input_schema, output_schema)
        self.tpos = input_schema.position(operator._time_field(input_schema).name)
        self.ts: List = []
        self.base = 0
        self.low = 0    # logical index of the first still-needed entry
        self.high = 0   # logical index one past the last closed window's content
        self.t0: Optional[float] = None
        self.next_idx = 0
        self.monotonic = True
        self.last_ts: Optional[float] = None
        self.compact_at = 64

    def process(self, tuples: Sequence[StreamTuple]) -> List[StreamTuple]:
        if not tuples:
            return []
        rows = [t.values for t in tuples]
        tpos = self.tpos
        new_ts = [row[tpos] for row in rows]
        if self.monotonic:
            previous = self.last_ts
            for timestamp in new_ts:
                if previous is not None and timestamp < previous:
                    self.monotonic = False
                    break
                previous = timestamp
        if self.monotonic:
            return self._process_monotonic(rows, new_ts)
        return self._process_scan(rows, new_ts)

    def _process_monotonic(self, rows, new_ts) -> List[StreamTuple]:
        # Appending the whole batch up-front is safe: any batch-mate
        # after the tuple that closes a window has a timestamp at or
        # past that tuple's, hence at or past the window's end, so the
        # high pointer never admits it.
        self.ts.extend(new_ts)
        for col, position in zip(self.cols, self.positions):
            col.extend([row[position] for row in rows])
        size, step = self.size, self.step
        ts_buffer = self.ts
        outputs: List[StreamTuple] = []
        for timestamp in new_ts:
            if self.t0 is None:
                self.t0 = timestamp
            while True:
                start = self.t0 + self.next_idx * step
                end = start + size
                if timestamp < end:
                    break
                base = self.base
                low = self.low
                while ts_buffer[low - base] < start:
                    low += 1
                high = self.high
                if high < low:
                    high = low
                while ts_buffer[high - base] < end:
                    high += 1
                if high > low:
                    outputs.append(self._emit_slice(low - base, high - base))
                self.low = low
                self.high = high
                self.next_idx += 1
        self.last_ts = new_ts[-1]
        drop = self.low - self.base
        if drop > 0:
            del ts_buffer[:drop]
            for col in self.cols:
                del col[:drop]
            self.base = self.low
        return outputs

    def _process_scan(self, rows, new_ts) -> List[StreamTuple]:
        # Out-of-order timestamps: window membership is by value, so a
        # closing window selects matching indices across the whole
        # retained buffer — exactly the seed's semantics.  Entries are
        # appended one at a time (a pre-appended batch-mate could
        # otherwise leak into a window closing before its arrival).
        size, step = self.size, self.step
        ts_buffer = self.ts
        cols = self.cols
        positions = self.positions
        outputs: List[StreamTuple] = []
        compacted = False
        for row, timestamp in zip(rows, new_ts):
            if self.t0 is None:
                self.t0 = timestamp
            while True:
                start = self.t0 + self.next_idx * step
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
            ts_buffer.append(timestamp)
            for col, position in zip(cols, positions):
                col.append(row[position])
            # Amortized compaction: stale entries can never match the
            # membership predicate (every future window starts at or
            # after ``earliest``), so deferring their removal is
            # output-neutral; the doubling threshold bounds total
            # compaction work by the stream length.
            if len(ts_buffer) >= self.compact_at:
                earliest = self.t0 + self.next_idx * step
                keep = [
                    index for index, value in enumerate(ts_buffer)
                    if value >= earliest
                ]
                if len(keep) < len(ts_buffer):
                    ts_buffer[:] = [ts_buffer[index] for index in keep]
                    for col in cols:
                        col[:] = [col[index] for index in keep]
                    compacted = True
                self.compact_at = max(64, 2 * len(ts_buffer))
        # Re-arm the pointer path once the disordered backlog is gone:
        # only checked after a sweep actually removed entries (amortized,
        # like the sweep itself), and only after the whole batch so the
        # two modes never interleave within one dispatch.
        if compacted and self._is_ascending(ts_buffer):
            self._rearm()
        return outputs

    @staticmethod
    def _is_ascending(values: Sequence) -> bool:
        return all(earlier <= later for earlier, later in zip(values, values[1:]))

    def _rearm(self) -> None:
        """Return to the monotonic pointer path on a sorted buffer.

        The retained entries all sit at or after the next window's start
        (compaction just enforced that), so "first still-needed entry"
        is index 0; the high pointer recomputes forward from there on
        the next window close.  ``last_ts`` re-seeds the disorder
        detector, so a later regression drops straight back to scan.
        """
        self.monotonic = True
        self.base = 0
        self.low = 0
        self.high = 0
        self.last_ts = self.ts[-1] if self.ts else None

    def _emit_selected(self, selected) -> StreamTuple:
        values = [
            compute([col[index] for index in selected])
            for compute, col in self.computes
        ]
        return self._coerced(values)
