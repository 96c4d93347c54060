"""Map (projection) box."""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import SchemaError
from repro.streams.operators.base import BoundOperator, Operator
from repro.streams.schema import Schema
from repro.streams.tuples import Batch


class MapOperator(Operator):
    """Project tuples onto a subset of attributes.

    Attribute names are case-insensitive; output order follows the input
    schema's declaration order (Aurora's map box does not reorder).

    :meth:`bind` resolves the output attributes to input positions once,
    so a bound map re-labels a batch's columns and touches no row.
    """

    kind = "map"
    #: Projection is pure — safe to share across queries at any point.
    stateful = False

    def __init__(self, attributes: Iterable[str]):
        names: List[str] = []
        seen = set()
        for attribute in attributes:
            key = attribute.lower()
            if key not in seen:
                seen.add(key)
                names.append(attribute)
        if not names:
            raise SchemaError("map operator needs at least one attribute")
        self.attributes: Tuple[str, ...] = tuple(names)

    def attribute_set(self) -> frozenset:
        """Lower-cased attribute names, for merging and NR/PR checks."""
        return frozenset(a.lower() for a in self.attributes)

    def output_schema(self, input_schema: Schema) -> Schema:
        return input_schema.project(self.attributes)

    def bind(self, input_schema: Schema, output_schema: Schema) -> BoundOperator:
        indices = input_schema.positions(output_schema.attribute_names)
        return lambda batch: Batch([batch.columns[i] for i in indices], batch.rows)

    def describe(self) -> str:
        return f"SELECT {', '.join(self.attributes)}"
