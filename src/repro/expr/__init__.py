"""Boolean condition toolkit for filter operators and NR/PR analysis.

The paper's filter conditions are *complex expressions*: simple expressions
``x op v`` (op in <, >, <=, >=, =, !=; v a number, or a string for =/!=)
connected with NOT, AND, OR.  This package provides:

- an AST (:mod:`repro.expr.ast`) and a parser (:mod:`repro.expr.parser`),
- NOT-elimination via the paper's Table 2 and De Morgan's laws, postfix
  conversion and DNF normalisation (:mod:`repro.expr.normalize`) — the
  Steps 1 and 2 of Section 3.5,
- pairwise simple-expression satisfiability — the paper's
  ``checkTwoSimpleExpression`` over all 36 operator pairs
  (:mod:`repro.expr.satisfiability`),
- filter-merge simplification (:mod:`repro.expr.simplify`),
- evaluation of conditions against stream tuples (:mod:`repro.expr.evaluate`),
- schema-specialised compilation of conditions to plain Python closures
  for the engine's hot path (:mod:`repro.expr.compile`).
"""

from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)
from repro.expr.parser import parse_condition
from repro.expr.normalize import eliminate_not, to_dnf, to_postfix
from repro.expr.satisfiability import (
    PairVerdict,
    check_two_simple_expressions,
    conjunction_verdict,
    dnf_verdict,
)
from repro.expr.simplify import simplify_conjunction
from repro.expr.evaluate import evaluate
from repro.expr.compile import compile_batch

__all__ = [
    "AndExpression",
    "BooleanExpression",
    "NotExpression",
    "Operator",
    "OrExpression",
    "SimpleExpression",
    "TrueExpression",
    "parse_condition",
    "eliminate_not",
    "to_dnf",
    "to_postfix",
    "PairVerdict",
    "check_two_simple_expressions",
    "conjunction_verdict",
    "dnf_verdict",
    "simplify_conjunction",
    "evaluate",
    "compile_batch",
]
