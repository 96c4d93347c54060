"""Map (projection) box."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.errors import SchemaError
from repro.streams.operators.base import Operator
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


class MapOperator(Operator):
    """Project tuples onto a subset of attributes.

    Attribute names are case-insensitive; output order follows the input
    schema's declaration order (Aurora's map box does not reorder).

    The projection is compiled once per tuple layout: the output
    attributes are resolved to positional indices into the incoming
    value vector, so per-tuple work is a single ``itemgetter`` call
    instead of one case-insensitive name lookup per attribute.
    """

    kind = "map"
    #: Projection is pure (the compiled itemgetter is a per-layout cache,
    #: not window state) — safe to share across queries at any point.
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
        self._compiled_key = None  # (input schema, output schema) identity pair
        self._project_values = None

    def attribute_set(self) -> frozenset:
        """Lower-cased attribute names, for merging and NR/PR checks."""
        return frozenset(a.lower() for a in self.attributes)

    def output_schema(self, input_schema: Schema) -> Schema:
        return input_schema.project(self.attributes)

    def _compile_for(self, input_schema: Schema, output_schema: Schema) -> None:
        cached = self._compiled_key
        if cached is not None and cached[0] is input_schema and cached[1] is output_schema:
            return  # steady state: one identity check per call
        key = (input_schema, output_schema)
        if cached == key:
            self._compiled_key = key
            return
        indices = input_schema.positions(output_schema.attribute_names)
        if len(indices) == 1:
            index = indices[0]
            self._project_values = lambda values: (values[index],)
        else:
            self._project_values = itemgetter(*indices)
        self._compiled_key = key

    def process(self, tup: StreamTuple, output_schema: Schema) -> List[StreamTuple]:
        self._compile_for(tup.schema, output_schema)
        return [StreamTuple(output_schema, self._project_values(tup.values))]

    def process_batch(
        self, tuples: Sequence[StreamTuple], output_schema: Schema
    ) -> List[StreamTuple]:
        if not tuples:
            return []
        self._compile_for(tuples[0].schema, output_schema)
        project = self._project_values
        return [StreamTuple(output_schema, project(tup._values)) for tup in tuples]

    def fresh_copy(self) -> "MapOperator":
        return MapOperator(self.attributes)

    def describe(self) -> str:
        return f"SELECT {', '.join(self.attributes)}"
