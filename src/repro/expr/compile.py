"""Compile filter conditions to plain Python closures.

The interpreter in :mod:`repro.expr.evaluate` re-walks the expression
AST for every tuple: recursive ``isinstance`` dispatch per node, a
name-based attribute lookup per leaf, and an :class:`Operator` enum
dispatch per comparison.  That cost is paid once per tuple per
registered query, which makes per-tuple operator evaluation the engine's
bottleneck at query fan-out.

This module closes that gap with the standard interpreter→compiler
jump: a :class:`~repro.expr.ast.BooleanExpression` is compiled *once*
against a resolved :class:`~repro.streams.schema.Schema` into Python
source that

- resolves every attribute reference to a positional index into the
  tuple's value vector (``v[3]`` instead of a case-insensitive name
  lookup),
- specialises every comparison to the native operator for the leaf's
  dtype (``v[3] > 5.0`` instead of ``Operator.GT.apply(...)``),
- short-circuits AND/OR through Python's own ``and``/``or``.

The source is compiled with :func:`eval` in a restricted namespace: no
builtins, and literals that cannot be embedded verbatim (non-finite
floats) are passed through a constants tuple, so no user-controlled
text is ever spliced into the generated code (string literals are
embedded via ``repr``, which escapes quoting).

Compilation validates the expression against the schema exactly like
the interpreter would at evaluation time: an unknown attribute raises
:class:`UnknownAttributeError`, a string/numeric mismatch or a boolean
attribute raises :class:`ExpressionTypeError`.  For any schema-valid
expression and schema-conformant tuple the compiled closure is
decision-identical to :func:`repro.expr.evaluate.evaluate` — the
streams differential harness (``tests/properties/test_streams_equivalence.py``),
whose oracle filters by the interpreter, proves it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, List, Sequence

from repro.errors import ExpressionTypeError
from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)

if TYPE_CHECKING:  # deferred: repro.streams imports back into repro.expr
    from repro.streams.schema import Schema
    from repro.streams.tuples import StreamTuple

#: Comparison spellings in generated source (EQ/NE widen to Python's).
_OP_SOURCE = {
    Operator.LT: "<",
    Operator.GT: ">",
    Operator.LE: "<=",
    Operator.GE: ">=",
    Operator.EQ: "==",
    Operator.NE: "!=",
}


def _literal_source(value, constants: List) -> str:
    """Source text for a leaf literal, spilling to the constants tuple.

    ``repr`` round-trips ints, strings and finite floats exactly;
    non-finite floats (``nan``/``inf``) have no literal spelling in an
    empty namespace, so they ride in via ``C``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        constants.append(value)
        return f"C[{len(constants) - 1}]"
    return repr(value)


def _leaf_source(leaf: SimpleExpression, schema: "Schema", constants: List) -> str:
    from repro.streams.schema import DataType

    field = schema.field(leaf.attribute)  # raises UnknownAttributeError
    literal_is_str = isinstance(leaf.value, str)
    if field.dtype is DataType.BOOL:
        raise ExpressionTypeError(
            f"attribute {field.name!r} is boolean; filter conditions "
            f"compare numbers or strings"
        )
    if literal_is_str != (field.dtype is DataType.STRING):
        raise ExpressionTypeError(
            f"cannot compare attribute {field.name!r} ({field.dtype.value}) "
            f"with literal {leaf.value!r}"
        )
    index = schema.position(leaf.attribute)
    return f"v[{index}] {_OP_SOURCE[leaf.op]} {_literal_source(leaf.value, constants)}"


def _expression_source(
    expression: BooleanExpression, schema: "Schema", constants: List
) -> str:
    """Recursively render *expression* as Python source over ``v``."""
    if isinstance(expression, TrueExpression):
        return "True"
    if isinstance(expression, SimpleExpression):
        return _leaf_source(expression, schema, constants)
    if isinstance(expression, AndExpression):
        return "(" + " and ".join(
            _expression_source(child, schema, constants)
            for child in expression.children
        ) + ")"
    if isinstance(expression, OrExpression):
        return "(" + " or ".join(
            _expression_source(child, schema, constants)
            for child in expression.children
        ) + ")"
    if isinstance(expression, NotExpression):
        return f"(not {_expression_source(expression.child, schema, constants)})"
    raise ExpressionTypeError(f"cannot compile expression node {expression!r}")


def _build(source: str, constants: List):
    """Evaluate generated lambda *source* in a builtins-free namespace."""
    namespace = {"__builtins__": {}, "C": tuple(constants)}
    return eval(compile(source, "<compiled-condition>", "eval"), namespace)


@lru_cache(maxsize=512)
def compile_batch(
    expression: BooleanExpression, schema: "Schema"
) -> Callable[[Sequence["StreamTuple"]], List[bool]]:
    """Compile *expression* into a vectorized mask function.

    The returned closure maps a batch of tuples to one boolean per
    tuple, evaluating the condition inside a single list comprehension
    so the per-tuple cost is the specialised comparisons alone.  It
    assumes the tuples conform to *schema* (the engine validates graphs
    against stream schemas before execution).

    Cached on the (expression, schema) pair — both are immutable and
    hashable — so every filter over the same condition and schema
    shares one compilation.
    """
    constants: List = []
    body = _expression_source(expression, schema, constants)
    # One inlined comprehension per batch: no per-row function call.
    # ``for v in (t.values,)`` binds each tuple's value vector to ``v``
    # without an intermediate list or an extra call frame.
    return _build(f"lambda ts: [{body} for t in ts for v in (t.values,)]", constants)

