"""Stream schemas: ordered, typed attribute definitions.

In the Aurora model a data stream is an append-only sequence of tuples
sharing one schema.  A :class:`Schema` is an ordered mapping from attribute
name to :class:`Field`; order matters because StreamSQL ``CREATE STREAM``
statements list fields positionally (see the paper's Figure 4(b)).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import SchemaError, UnknownAttributeError


class DataType(enum.Enum):
    """Attribute data types supported by the engine.

    The subset matches what the paper's schemas use: timestamps, doubles,
    integers, booleans and strings.  ``TIMESTAMP`` is represented as a
    float (seconds since epoch) at runtime, like StreamBase's internal
    representation of sampling times.
    """

    INT = "int"
    DOUBLE = "double"
    STRING = "string"
    BOOL = "bool"
    TIMESTAMP = "timestamp"

    def coerce(self, value):
        """Coerce *value* to this data type, raising :class:`SchemaError`.

        Integers are accepted for ``DOUBLE``/``TIMESTAMP`` fields (they are
        widened to float; one too large for a float is refused); a
        ``TIMESTAMP`` must be finite (a NaN or infinite one would hold
        every time window open, or walk it forever); all other
        mismatches are rejected rather than silently converted, so a
        schema violation surfaces at ingress.
        """
        if isinstance(value, bool):
            if self is DataType.BOOL:
                return value
            raise SchemaError(f"cannot store bool value {value!r} in {self.value} field")
        if self is DataType.INT:
            if isinstance(value, int):
                return value
        elif self in (DataType.DOUBLE, DataType.TIMESTAMP):
            if isinstance(value, (int, float)):
                try:
                    number = float(value)
                except OverflowError:
                    raise SchemaError(
                        f"an int of {value.bit_length()} bits is too large for "
                        f"data type {self.value!r}"
                    ) from None
                if not math.isfinite(number) and self is DataType.TIMESTAMP:
                    raise SchemaError(f"timestamp {value!r} is not finite")
                return number
        elif self is DataType.STRING:
            if isinstance(value, str):
                return value
        elif self is DataType.BOOL:
            if isinstance(value, bool):
                return value
        raise SchemaError(
            f"value {value!r} ({type(value).__name__}) is not valid for "
            f"data type {self.value!r}"
        )

    @classmethod
    def parse(cls, text: str) -> "DataType":
        """Parse a StreamSQL type name (case-insensitive) into a DataType."""
        normalized = text.strip().lower()
        aliases = {
            "int": cls.INT,
            "integer": cls.INT,
            "long": cls.INT,
            "double": cls.DOUBLE,
            "float": cls.DOUBLE,
            "string": cls.STRING,
            "varchar": cls.STRING,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
            "timestamp": cls.TIMESTAMP,
        }
        if normalized not in aliases:
            raise SchemaError(f"unknown data type {text!r}")
        return aliases[normalized]


#: Per data type, the type whose every value :meth:`DataType.coerce`
#: passes through unchanged (``int`` excludes ``bool``).  ``TIMESTAMP``
#: has none: a float must still prove finite.
_RUNTIME_TYPES: Dict[DataType, Optional[type]] = {
    DataType.INT: int,
    DataType.DOUBLE: float,
    DataType.STRING: str,
    DataType.BOOL: bool,
    DataType.TIMESTAMP: None,
}


def _timestamp(value, _coerce=DataType.TIMESTAMP.coerce, _low=-math.inf, _high=math.inf):
    """``DataType.TIMESTAMP.coerce`` with a finite float — the common
    case — answered first: every ingested record carries a timestamp, so
    does a window output that aggregates one (``samplingtime:lastval``),
    and the full method costs several times this check."""
    if type(value) is float and _low < value < _high:
        return value
    return _coerce(value)


def _widener(schema: "Schema") -> Callable[[Iterable], tuple]:
    """``widen(values)``: :meth:`DataType.coerce` applied per field of
    *schema*, skipping the call for a value already of the exact type
    (a timestamp goes through :func:`_timestamp`)."""
    types = tuple(
        (_RUNTIME_TYPES[field.dtype],
         _timestamp if field.dtype is DataType.TIMESTAMP else field.dtype.coerce)
        for field in schema
    )

    def widen(values) -> tuple:
        return tuple([
            value if type(value) is exact else coerce(value)
            for value, (exact, coerce) in zip(values, types)
        ])

    return widen


def _column_coercer(dtype: DataType) -> Callable[[list], list]:
    """``coerce(column)``: *column* itself when its values are all of
    *dtype*'s exact type (finite floats for a timestamp); for a DOUBLE or
    TIMESTAMP column of ``int`` s only, one ``float`` pass (an int too
    large for a float falls through); else a copy with every other value
    passed through :meth:`DataType.coerce`."""
    exact = _RUNTIME_TYPES[dtype]
    kinds, coerce = {exact or float}, dtype.coerce if exact else _timestamp
    widens = {int} if dtype in (DataType.DOUBLE, DataType.TIMESTAMP) else None

    def coerce_column(column: list) -> list:
        seen = set(map(type, column))
        if seen == kinds and (exact or all(map(math.isfinite, column))):
            return column
        if seen == widens:
            try:
                return list(map(float, column))
            except OverflowError:
                pass
        return [value if type(value) is exact else coerce(value) for value in column]

    return coerce_column


#: One column coercion per data type, shared by every window.
_COLUMN_COERCERS = {dtype: _column_coercer(dtype) for dtype in DataType}


#: Data types on which arithmetic aggregation (avg, sum, ...) is defined.
NUMERIC_TYPES = (DataType.INT, DataType.DOUBLE, DataType.TIMESTAMP)


class Field:
    """A single named, typed attribute of a stream schema."""

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype: Union[DataType, str]):
        if not name or not isinstance(name, str):
            raise SchemaError(f"invalid field name {name!r}")
        if not name[0].isalpha() and name[0] != "_":
            raise SchemaError(f"field name {name!r} must start with a letter")
        self.name = name
        self.dtype = dtype if isinstance(dtype, DataType) else DataType.parse(dtype)

    @property
    def is_numeric(self) -> bool:
        """True when arithmetic aggregates may be applied to this field."""
        return self.dtype in NUMERIC_TYPES

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.dtype == other.dtype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.dtype))

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.dtype.value!r})"


class Schema:
    """An ordered collection of :class:`Field` objects.

    Attribute names are case-insensitive for lookup (StreamSQL is
    case-insensitive) but preserve their declared spelling for output.
    """

    def __init__(self, name: str, fields: Iterable[Union[Field, Tuple[str, Union[DataType, str]]]]):
        if not name:
            raise SchemaError("schema name must be non-empty")
        self.name = name
        self._fields: List[Field] = []
        self._by_name: Dict[str, Field] = {}
        self._positions: Dict[str, int] = {}
        for item in fields:
            field = item if isinstance(item, Field) else Field(item[0], item[1])
            key = field.name.lower()
            if key in self._by_name:
                raise SchemaError(f"duplicate field {field.name!r} in schema {name!r}")
            self._positions[key] = len(self._fields)
            self._fields.append(field)
            self._by_name[key] = field
        if not self._fields:
            raise SchemaError(f"schema {name!r} must have at least one field")
        self._names: Tuple[str, ...] = tuple(field.name for field in self._fields)
        self._arity = len(self._fields)  # StreamTuple's per-tuple arity check
        #: Nothing changes a schema after construction, so the hash — a
        #: walk of every field — is taken once, when first asked for.
        self._hash: Optional[int] = None

    @property
    def fields(self) -> Tuple[Field, ...]:
        return tuple(self._fields)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Declared attribute names, in schema order."""
        return self._names

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, attribute: str) -> bool:
        return isinstance(attribute, str) and attribute.lower() in self._by_name

    def field(self, attribute: str) -> Field:
        """Return the :class:`Field` named *attribute* (case-insensitive)."""
        try:
            return self._by_name[attribute.lower()]
        except KeyError:
            raise UnknownAttributeError(attribute, self.name) from None

    def position(self, attribute: str) -> int:
        """Return the 0-based position of *attribute* (case-insensitive)."""
        try:
            return self._positions[attribute.lower()]
        except KeyError:
            raise UnknownAttributeError(attribute, self.name) from None

    def positions(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        """Positions of *attributes* (case-insensitive), in argument order.

        The batch paths resolve a whole attribute list to value-vector
        indices once per schema with this (columnar window buffers,
        compiled projections) instead of one lookup per tuple.
        """
        return tuple(self.position(attribute) for attribute in attributes)

    def canonical_name(self, attribute: str) -> str:
        """Return the declared spelling of *attribute*."""
        return self.field(attribute).name

    def project(self, attributes: Iterable[str], name: Optional[str] = None) -> "Schema":
        """Return a new schema containing only *attributes* (schema order).

        The projection preserves the original field order regardless of the
        order the caller lists attributes in — matching Aurora's map box.
        """
        wanted = {self.field(a).name for a in attributes}
        kept = [f for f in self._fields if f.name in wanted]
        if not kept:
            raise SchemaError(
                f"projection of schema {self.name!r} onto {sorted(wanted)!r} is empty"
            )
        return Schema(name or self.name, kept)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(tuple(self._fields))
        return value

    def __reduce__(self):
        # String hashes are salted per process: a pickled schema must
        # not carry this process's hash.
        return Schema, (self.name, self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.dtype.value}" for f in self._fields)
        return f"Schema({self.name!r}, [{inner}])"


#: The weather-station schema from the paper's Example 1 (Section 2.2).
WEATHER_SCHEMA = Schema(
    "weather",
    [
        Field("samplingtime", DataType.TIMESTAMP),
        Field("temperature", DataType.DOUBLE),
        Field("humidity", DataType.DOUBLE),
        Field("solarradiation", DataType.DOUBLE),
        Field("rainrate", DataType.DOUBLE),
        Field("windspeed", DataType.DOUBLE),
        Field("winddirection", DataType.INT),
        Field("barometer", DataType.DOUBLE),
    ],
)

#: GPS-track schema mentioned in the paper's evaluation (Section 4.2).
GPS_SCHEMA = Schema(
    "gps",
    [
        Field("samplingtime", DataType.TIMESTAMP),
        Field("deviceid", DataType.STRING),
        Field("latitude", DataType.DOUBLE),
        Field("longitude", DataType.DOUBLE),
        Field("altitude", DataType.DOUBLE),
        Field("speed", DataType.DOUBLE),
        Field("heading", DataType.INT),
    ],
)
