"""Stream tuples: immutable, schema-validated records.

A :class:`StreamTuple` pairs a schema with one value per field.  Tuples are
immutable — the Aurora model treats streams as append-only sequences and
operators always emit *new* tuples rather than mutating inputs.  Inside
the engine rows travel as a :class:`Batch` of columns, from ingress
(:func:`_record_ingress`) to a stream's reader, who gets tuples.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.streams.schema import _COLUMN_COERCERS, Schema, _widener


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


def _record_ingress(schema: Schema) -> Tuple[Callable, Callable[[Any], StreamTuple]]:
    """``(gather, convert)``.  ``gather(records)`` is the :class:`Batch`
    of ``dict`` s keyed by exactly *schema*'s names (a gather and a
    ``_COLUMN_COERCERS`` pass per field), else ``None``: another record
    or a refused column sends the list through ``convert`` per record —
    a tuple's values coerced (a conformant one passes as itself), else
    :func:`make_tuple` — which accepts the same and raises the same."""
    widen = _widener(schema)
    fields = [(itemgetter(field.name), _COLUMN_COERCERS[field.dtype]) for field in schema]
    kinds, arity = {dict}, {schema._arity}

    def gather(records) -> Optional[Batch]:
        if set(map(type, records)) - kinds or set(map(len, records)) - arity:
            return None
        try:
            return Batch([coerce(list(map(get, records))) for get, coerce in fields])
        except (KeyError, SchemaError):
            return None

    def convert(record) -> StreamTuple:
        if isinstance(record, StreamTuple):
            values = widen(record._values)
            if all(map(is_, values, record._values)):
                return record
            return StreamTuple(record._schema, values)
        return make_tuple(schema, record)

    return gather, convert


def make_tuples(schema: Schema, records: Iterable[Mapping[str, Any]]):
    """Build a list of validated tuples from an iterable of mappings."""
    return [make_tuple(schema, record) for record in records]


class Batch:
    """What crosses one edge of a plan, and what a pushed list of records
    becomes: a run of rows, as columns.

    ``columns[p]`` holds every row's value at schema position ``p``;
    ``rows`` are the selected row numbers, in order (``None``: all of
    them).  Rows become tuples only when someone asks
    (:meth:`to_tuples`): a tuple listener, or a reader of a stream
    (:meth:`Stream.append_rows`).  A batch is read-only: every node
    downstream of an edge shares it.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[Sequence[Any]], rows: Optional[Sequence[int]] = None):
        self.columns = columns
        self.rows = rows

    @classmethod
    def of(cls, tuples: Sequence[StreamTuple]) -> "Batch":
        """The batch of *tuples* (one schema); no tuples select no rows."""
        return cls(list(zip(*[t._values for t in tuples])), None if tuples else ())

    def __len__(self) -> int:
        rows = self.rows
        return len(self.columns[0]) if rows is None else len(rows)

    def column(self, position: int) -> Sequence[Any]:
        """The selected rows' values at *position*, in row order."""
        column = self.columns[position]
        rows = self.rows
        return column if rows is None else [column[i] for i in rows]

    def to_tuples(self, schema: Schema) -> List[StreamTuple]:
        """The selected rows as tuples of *schema* (this edge's)."""
        columns = self.columns if self.rows is None else map(self.column, range(len(self.columns)))
        return list(map(StreamTuple, repeat(schema), zip(*columns)))
