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

- resolves every attribute reference to the batch column at its
  schema position, bound once per batch (``c3 = C[3]``, then
  ``c3[i]`` per row instead of a case-insensitive name lookup),
- specialises every comparison to the native operator for the leaf's
  dtype (``c3[i] > 5.0`` instead of ``Operator.GT.apply(...)``),
- short-circuits AND/OR through Python's own ``and``/``or``.

The source is compiled with :func:`exec` in a restricted namespace: no
builtins, and literals that cannot be embedded verbatim (non-finite
floats) are passed through a constants tuple, so no user-controlled
text is ever spliced into the generated code (string literals are
embedded via ``repr``, which escapes quoting).

Compilation validates the expression against the schema exactly like
the interpreter would at evaluation time: an unknown attribute raises
:class:`UnknownAttributeError`, a string/numeric mismatch or a boolean
attribute raises :class:`ExpressionTypeError`.  For any schema-valid
expression and schema-conformant row the compiled mask is
decision-identical to :func:`repro.expr.evaluate.evaluate` — the
streams differential harness (``tests/properties/test_streams_equivalence.py``),
whose oracle filters by the interpreter, proves it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence, Set

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
from repro.obs import MEMO_MAX_TEXT, Memo

if TYPE_CHECKING:  # deferred: repro.streams imports back into repro.expr
    from repro.streams.schema import Schema

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
    empty namespace, so they ride in via ``K``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        constants.append(value)
        return f"K[{len(constants) - 1}]"
    return repr(value)


def _leaf_source(
    leaf: SimpleExpression, schema: "Schema", constants: List, columns: Set[int]
) -> str:
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
    columns.add(index)
    return f"c{index}[i] {_OP_SOURCE[leaf.op]} {_literal_source(leaf.value, constants)}"


def _expression_source(
    expression: BooleanExpression, schema: "Schema", constants: List, columns: Set[int]
) -> str:
    """Render *expression* as source over row ``i`` of columns ``c<p>``."""
    if isinstance(expression, TrueExpression):
        return "True"
    if isinstance(expression, SimpleExpression):
        return _leaf_source(expression, schema, constants, columns)
    if isinstance(expression, AndExpression):
        return "(" + " and ".join(
            _expression_source(child, schema, constants, columns)
            for child in expression.children
        ) + ")"
    if isinstance(expression, OrExpression):
        return "(" + " or ".join(
            _expression_source(child, schema, constants, columns)
            for child in expression.children
        ) + ")"
    if isinstance(expression, NotExpression):
        return f"(not {_expression_source(expression.child, schema, constants, columns)})"
    raise ExpressionTypeError(f"cannot compile expression node {expression!r}")


def _build(source: str, constants: List):
    """Define generated ``mask`` *source* in a builtins-free namespace."""
    namespace = {"__builtins__": {}, "K": tuple(constants)}
    exec(compile(source, "<compiled-condition>", "exec"), namespace)
    return namespace["mask"]


def compile_batch(
    expression: BooleanExpression, schema: "Schema"
) -> Callable[[Sequence[Sequence], Iterable[int]], List[int]]:
    """Compile *expression* into a vectorized mask over columns.

    ``mask(columns, rows)`` returns, in order, the row numbers among
    *rows* whose values satisfy the condition, ``columns[p]`` holding
    the values at schema position ``p`` (a ``Batch``'s layout).  Each
    column the condition names is bound once per call and the condition
    runs inside one list comprehension, so the per-row cost is the
    specialised comparisons alone.  It assumes the values conform to
    *schema* (the engine validates graphs against stream schemas first).

    Memoised on the (expression, schema) pair — both are immutable and
    hashable — so every filter over the same condition and schema
    shares one compilation (a :class:`repro.obs.Memo` named
    ``compile_batch``; no condition longer than
    :data:`~repro.obs.MEMO_MAX_TEXT` characters is kept).
    """
    return _memo.get((expression, schema))


def _compile_batch(expression, schema) -> Callable[[Sequence[Sequence], Iterable[int]], List[int]]:
    constants: List = []
    columns: Set[int] = set()
    body = _expression_source(expression, schema, constants, columns)
    binds = "".join(f"    c{index} = C[{index}]\n" for index in sorted(columns))
    return _build(
        f"def mask(C, R):\n{binds}    return [i for i in R if {body}]\n", constants
    )


# The parse tree and the mask weigh up to ~23 bytes a rendered character.
_memo = Memo(lambda key: _compile_batch(*key),
             lambda key, mask: None if (n := len(key[0].to_condition_string())) > MEMO_MAX_TEXT
             else 32 * n + 1024, name="compile_batch")
