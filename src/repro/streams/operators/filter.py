"""Filter (selection) box."""

from __future__ import annotations

from typing import Union

from repro.errors import SchemaError
from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    OrExpression,
    SimpleExpression,
)
from repro.expr.compile import compile_batch
from repro.expr.parser import parse_condition
from repro.streams.operators.base import BoundOperator, Operator
from repro.streams.schema import DataType, Schema
from repro.streams.tuples import Batch


class FilterOperator(Operator):
    """Emit only the tuples whose values satisfy a boolean condition.

    The condition may be given as a string (parsed with the condition
    grammar) or an already-built :class:`BooleanExpression`.

    :meth:`bind` compiles the condition against the input schema into a
    plain Python mask over a batch's columns (:mod:`repro.expr.compile`)
    — attribute references become column reads, comparisons are
    specialised, AND/OR short-circuit natively — and a bound filter
    only narrows the batch's selected rows.
    """

    kind = "filter"
    #: Filtering is pure — safe to share across queries in the shared
    #: execution plan at any point.
    stateful = False

    def __init__(self, condition: Union[str, BooleanExpression]):
        if isinstance(condition, str):
            condition = parse_condition(condition)
        self.condition = condition

    def output_schema(self, input_schema: Schema) -> Schema:
        self._validate_condition(input_schema)
        return input_schema

    def _validate_condition(self, schema: Schema) -> None:
        """Check every referenced attribute exists and types line up."""
        for leaf in sorted(_leaves(self.condition), key=lambda leaf: leaf.attribute):
            field = schema.field(leaf.attribute)  # raises UnknownAttributeError
            literal_is_str = isinstance(leaf.value, str)
            if literal_is_str != (field.dtype is DataType.STRING):
                raise SchemaError(
                    f"filter compares {field.dtype.value} attribute "
                    f"{field.name!r} with "
                    f"{'string' if literal_is_str else 'numeric'} literal "
                    f"{leaf.value!r}"
                )
            if field.dtype is DataType.BOOL:
                raise SchemaError(
                    f"filter conditions on boolean attribute {field.name!r} "
                    f"are not supported; compare against 0/1 integers instead"
                )

    def bind(self, input_schema: Schema, output_schema: Schema) -> BoundOperator:
        mask = compile_batch(self.condition, input_schema)

        def run(batch: Batch) -> Batch:
            rows = range(len(batch)) if batch.rows is None else batch.rows
            return Batch(batch.columns, mask(batch.columns, rows))

        return run

    def describe(self) -> str:
        return f"WHERE {self.condition.to_condition_string()}"


def _leaves(expression: BooleanExpression):
    """Yield every SimpleExpression leaf of *expression*."""
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, SimpleExpression):
            yield node
        elif isinstance(node, (AndExpression, OrExpression)):
            stack.extend(node.children)
        elif isinstance(node, NotExpression):
            stack.append(node.child)
