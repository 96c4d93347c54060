"""Stream tuples: immutable, schema-validated records.

A :class:`StreamTuple` pairs a schema with one value per field.  Tuples are
immutable — the Aurora model treats streams as append-only sequences and
operators always emit *new* tuples rather than mutating inputs.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.streams.schema import Schema, _widener


class StreamTuple:
    """One record of a data stream.

    Values are stored positionally in schema order; attribute access is
    case-insensitive, mirroring the engine's StreamSQL dialect.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Tuple[Any, ...]):
        if len(values) != schema._arity:
            raise SchemaError(
                f"tuple has {len(values)} values but schema {schema.name!r} "
                f"has {len(schema)} fields"
            )
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> Tuple[Any, ...]:
        return self._values

    def __getitem__(self, attribute: str) -> Any:
        return self._values[self._schema.position(attribute)]

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of *attribute*, or *default* when absent."""
        if attribute in self._schema:
            return self[attribute]
        return default

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._schema

    def as_dict(self) -> Dict[str, Any]:
        """Return the tuple as an ordered ``{attribute: value}`` dict."""
        return dict(zip(self._schema.attribute_names, self._values))

    def project(self, schema: Schema) -> "StreamTuple":
        """Re-shape this tuple onto *schema* (a projection of its own)."""
        return StreamTuple(schema, tuple(self[name] for name in schema.attribute_names))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StreamTuple)
            and self._schema == other._schema
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._schema, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._schema.attribute_names, self._values)
        )
        return f"StreamTuple({self._schema.name}: {inner})"


def make_tuple(schema: Schema, record: Mapping[str, Any]) -> StreamTuple:
    """Build a validated :class:`StreamTuple` from a mapping.

    Every schema field must be present in *record* (case-insensitive);
    extra keys are rejected so typos surface immediately.  Values are
    coerced via :meth:`DataType.coerce`.
    """
    lowered = {key.lower(): value for key, value in record.items()}
    if len(lowered) != len(record):
        raise SchemaError(f"record has duplicate keys (case-insensitive): {sorted(record)}")
    values = []
    for field in schema:
        key = field.name.lower()
        if key not in lowered:
            raise SchemaError(f"record is missing attribute {field.name!r}")
        values.append(field.dtype.coerce(lowered.pop(key)))
    if lowered:
        raise SchemaError(
            f"record has attributes not in schema {schema.name!r}: {sorted(lowered)}"
        )
    return StreamTuple(schema, tuple(values))


def _record_converter(schema: Schema) -> Callable[[Any], StreamTuple]:
    """``convert(record)``: :func:`make_tuple` with the per-record work
    hoisted out.  A mapping keyed by exactly the declared attribute
    names is read positionally (values coerced as ever).  A tuple's
    values are coerced the same way: a conformant tuple passes through
    as itself, a widened one is rebuilt, a bad one raises
    ``SchemaError``.  Anything else goes through :func:`make_tuple`, so
    what is accepted, what it becomes and every error message are the
    same.
    """
    names = schema.attribute_names
    widen = _widener(schema)

    def convert(record) -> StreamTuple:
        if isinstance(record, StreamTuple):
            values = widen(record._values)
            if all(map(is_, values, record._values)):
                return record
            return StreamTuple(record._schema, values)
        if len(record) == len(names):
            try:
                values = [record[name] for name in names]
            except KeyError:
                return make_tuple(schema, record)
            return StreamTuple(schema, widen(values))
        return make_tuple(schema, record)

    return convert


def make_tuples(schema: Schema, records: Iterable[Mapping[str, Any]]):
    """Build a list of validated tuples from an iterable of mappings."""
    return [make_tuple(schema, record) for record in records]


class Batch:
    """What crosses one edge of a plan: a run of rows, as columns.

    ``columns[p]`` holds every row's value at schema position ``p``;
    ``rows`` are the selected row numbers, in order (``None``: all of
    them).  ``tuples``, when set, are the rows already built as tuples
    of the edge's schema — the pushed tuples while a chain has only
    filtered — so a sink hands out those objects; any other batch stays
    columns until its output is read (:meth:`Stream.append_rows`).
    A batch is read-only: every node downstream of an edge shares it.
    """

    __slots__ = ("columns", "rows", "tuples")

    def __init__(
        self,
        columns: Sequence[Sequence[Any]],
        rows: Optional[Sequence[int]] = None,
        tuples: Optional[Sequence[StreamTuple]] = None,
    ):
        self.columns = columns
        self.rows = rows
        self.tuples = tuples

    @classmethod
    def of(cls, tuples: Sequence[StreamTuple]) -> "Batch":
        """The batch of *tuples* (one schema); no tuples select no rows."""
        return cls(list(zip(*[t._values for t in tuples])), None if tuples else (), tuples)

    def __len__(self) -> int:
        rows = self.rows
        return len(self.columns[0]) if rows is None else len(rows)

    def column(self, position: int) -> Sequence[Any]:
        """The selected rows' values at *position*, in row order."""
        column = self.columns[position]
        rows = self.rows
        return column if rows is None else [column[i] for i in rows]

    def to_tuples(self, schema: Schema) -> Sequence[StreamTuple]:
        """The selected rows as tuples of *schema* (this edge's)."""
        tuples, rows = self.tuples, self.rows
        if tuples is not None:
            return tuples if rows is None else [tuples[i] for i in rows]
        columns = self.columns if rows is None else [
            [column[i] for i in rows] for column in self.columns
        ]
        return [StreamTuple(schema, values) for values in zip(*columns)]
