"""Filter (selection) box."""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.errors import SchemaError
from repro.expr.ast import BooleanExpression, SimpleExpression
from repro.expr.compile import compile_batch, compile_predicate
from repro.expr.parser import parse_condition
from repro.streams.operators.base import Operator
from repro.streams.schema import DataType, Schema
from repro.streams.tuples import StreamTuple


class FilterOperator(Operator):
    """Emit only the tuples whose values satisfy a boolean condition.

    The condition may be given as a string (parsed with the condition
    grammar) or an already-built :class:`BooleanExpression`.

    The condition is compiled once per schema into a plain Python
    closure (:mod:`repro.expr.compile`) — attribute references become
    positional indexing, comparisons are specialised, AND/OR
    short-circuit natively.
    """

    kind = "filter"
    #: Schema-compile caches aside, filtering is pure — safe to share
    #: across queries in the shared execution plan at any point.
    stateful = False

    def __init__(self, condition: Union[str, BooleanExpression]):
        if isinstance(condition, str):
            condition = parse_condition(condition)
        self.condition = condition
        self._compiled_schema: Schema = None
        self._predicate = None
        self._mask = None

    def output_schema(self, input_schema: Schema) -> Schema:
        self._validate_condition(input_schema)
        return input_schema

    def _validate_condition(self, schema: Schema) -> None:
        """Check every referenced attribute exists and types line up."""
        for attribute in sorted(self.condition.attributes()):
            field = schema.field(attribute)  # raises UnknownAttributeError
            for leaf in _leaves(self.condition):
                if leaf.attribute != attribute:
                    continue
                literal_is_str = isinstance(leaf.value, str)
                field_is_str = field.dtype is DataType.STRING
                if literal_is_str != field_is_str:
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

    def _compile_for(self, schema: Schema) -> None:
        """(Re)compile the condition for *schema*, caching the closures.

        The identity check keeps the steady state — every tuple of a
        stream shares one Schema object — at a single ``is`` test; the
        equality fallback handles equal-but-distinct schema objects.
        """
        if schema is not self._compiled_schema and schema != self._compiled_schema:
            self._predicate = compile_predicate(self.condition, schema)
            self._mask = compile_batch(self.condition, schema)
            self._compiled_schema = schema

    def process(self, tup: StreamTuple, output_schema: Schema) -> List[StreamTuple]:
        # A filter's output schema IS its input schema, and the
        # instance passes the same Schema object on every call.
        self._compile_for(output_schema)
        return [tup] if self._predicate(tup) else []

    def process_batch(
        self, tuples: Sequence[StreamTuple], output_schema: Schema
    ) -> List[StreamTuple]:
        if not tuples:
            return []
        self._compile_for(output_schema)
        mask = self._mask(tuples)
        return [tup for tup, keep in zip(tuples, mask) if keep]

    def fresh_copy(self) -> "FilterOperator":
        return FilterOperator(self.condition)

    def describe(self) -> str:
        return f"WHERE {self.condition.to_condition_string()}"


def _leaves(expression: BooleanExpression):
    """Yield every SimpleExpression leaf of *expression*."""
    from repro.expr.ast import AndExpression, NotExpression, OrExpression

    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, SimpleExpression):
            yield node
        elif isinstance(node, (AndExpression, OrExpression)):
            stack.extend(node.children)
        elif isinstance(node, NotExpression):
            stack.append(node.child)
