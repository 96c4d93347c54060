"""Pairwise simple-expression satisfiability (``checkTwoSimpleExpression``).

Section 3.5 of the paper resolves NR/PR warnings for filter operators by
pairwise comparison of simple expressions inside each DNF conjunction.
Two questions are answered for a pair on the same attribute:

1. *Can any value satisfy both?*  If not, the pair is contradictory and
   the conjunction can never be true (→ NR).
2. *Does the policy-side expression withhold values the user-side
   expression admits?*  If the user's value set is not a subset of the
   policy's, some tuples matching the user query will be filtered out by
   policy (→ PR).

The value domain is the reals for numeric comparisons (the six operators
``< > <= >= = !=``) and an unbounded string universe for ``=`` / ``!=``
on strings.  All 36 numeric operator pairs are covered by the set algebra
below (each simple expression denotes a point, a punctured line, or a
half-line; emptiness and subset tests are decided exactly).
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Sequence, Tuple

from repro.expr.ast import Operator, SimpleExpression


class PairVerdict(enum.IntEnum):
    """Outcome of a pairwise (or aggregated) NR/PR check.

    Ordered so that ``max`` combines severities: OK < PR < NR.
    """

    OK = 0
    PR = 1
    NR = 2


# ---------------------------------------------------------------------------
# Set algebra over a single attribute's value domain
# ---------------------------------------------------------------------------

def _is_string(expression: SimpleExpression) -> bool:
    return isinstance(expression.value, str)


def satisfies(expression: SimpleExpression, value) -> bool:
    """True when *value* is in the set denoted by *expression*."""
    return expression.op.apply(value, expression.value)


def intersection_empty(first: SimpleExpression, second: SimpleExpression) -> bool:
    """True when no single value satisfies both expressions.

    The two expressions must reference the same attribute; a mixed
    string/number pair is trivially empty (a value cannot be both).
    """
    if first.attribute != second.attribute:
        return False
    if _is_string(first) != _is_string(second):
        return True
    if _is_string(first):
        return _string_intersection_empty(first, second)
    return _numeric_intersection_empty(first, second)


def is_subset(inner: SimpleExpression, outer: SimpleExpression) -> bool:
    """True when every value satisfying *inner* also satisfies *outer*."""
    if inner.attribute != outer.attribute:
        return False
    if _is_string(inner) != _is_string(outer):
        # A string constraint can never be contained in a numeric one
        # (both denote non-empty sets in disjoint universes) — except the
        # degenerate equality case which cannot arise with typed schemas.
        return False
    if _is_string(inner):
        return _string_is_subset(inner, outer)
    return _numeric_is_subset(inner, outer)


def _string_intersection_empty(a: SimpleExpression, b: SimpleExpression) -> bool:
    if a.op is Operator.EQ and b.op is Operator.EQ:
        return a.value != b.value
    if a.op is Operator.EQ and b.op is Operator.NE:
        return a.value == b.value
    if a.op is Operator.NE and b.op is Operator.EQ:
        return a.value == b.value
    # NE & NE over an unbounded string universe always intersect.
    return False


def _string_is_subset(inner: SimpleExpression, outer: SimpleExpression) -> bool:
    if inner.op is Operator.EQ:
        if outer.op is Operator.EQ:
            return inner.value == outer.value
        return inner.value != outer.value  # {v} ⊆ ¬{w} iff v != w
    # inner is NE — an infinite set.
    if outer.op is Operator.EQ:
        return False
    return inner.value == outer.value  # ¬{v} ⊆ ¬{w} iff v == w


# Numeric case analysis.  Classify each expression as a point (EQ),
# a hole (NE, i.e. the line minus a point) or a ray.

_LOWER_RAYS = (Operator.GT, Operator.GE)   # (v, ∞) / [v, ∞)
_UPPER_RAYS = (Operator.LT, Operator.LE)   # (−∞, v) / (−∞, v]


def _numeric_intersection_empty(a: SimpleExpression, b: SimpleExpression) -> bool:
    if a.op is Operator.EQ:
        return not satisfies(b, a.value)
    if b.op is Operator.EQ:
        return not satisfies(a, b.value)
    # Neither is a point.  Holes never empty an infinite set; only two
    # opposite rays can fail to intersect.
    a_lower = a.op in _LOWER_RAYS
    a_upper = a.op in _UPPER_RAYS
    b_lower = b.op in _LOWER_RAYS
    b_upper = b.op in _UPPER_RAYS
    if a_lower and b_upper:
        return _rays_disjoint(a, b)
    if b_lower and a_upper:
        return _rays_disjoint(b, a)
    return False


def _rays_disjoint(lower: SimpleExpression, upper: SimpleExpression) -> bool:
    """Disjointness of a lower ray (>, >=) and an upper ray (<, <=)."""
    both_inclusive = lower.op is Operator.GE and upper.op is Operator.LE
    if both_inclusive:
        return lower.value > upper.value
    return lower.value >= upper.value


def _numeric_is_subset(inner: SimpleExpression, outer: SimpleExpression) -> bool:
    if inner.op is Operator.EQ:
        return satisfies(outer, inner.value)
    if outer.op is Operator.EQ:
        return False  # any non-point numeric set is infinite
    if outer.op is Operator.NE:
        if inner.op is Operator.NE:
            return inner.value == outer.value
        # ray ⊆ hole iff the hole's point lies outside the ray
        return not satisfies(inner, outer.value)
    if inner.op is Operator.NE:
        return False  # a hole spans the whole line; no ray contains it
    # ray ⊆ ray: must point the same direction
    inner_lower = inner.op in _LOWER_RAYS
    outer_lower = outer.op in _LOWER_RAYS
    if inner_lower != outer_lower:
        return False
    if inner_lower:
        # [/( v1, ∞) ⊆ [/( v2, ∞)
        if outer.op is Operator.GT and inner.op is Operator.GE:
            return inner.value > outer.value
        return inner.value >= outer.value
    # upper rays
    if outer.op is Operator.LT and inner.op is Operator.LE:
        return inner.value < outer.value
    return inner.value <= outer.value


# ---------------------------------------------------------------------------
# checkTwoSimpleExpression and the Step-3 aggregation
# ---------------------------------------------------------------------------

def conjunction_unsatisfiable(literals: Sequence[SimpleExpression]) -> bool:
    """True when the conjunction of *literals* admits no value assignment.

    Decided by pairwise :func:`intersection_empty` on same-attribute
    literals — exact for conjunctions of the six comparison operators
    (each attribute's constraint set is an intersection of points, holes
    and rays, and such an intersection is empty iff some pair is).
    """
    n = len(literals)
    for i in range(n):
        for j in range(i + 1, n):
            if intersection_empty(literals[i], literals[j]):
                return True
    return False


def check_two_simple_expressions(
    policy_side: SimpleExpression, user_side: SimpleExpression
) -> PairVerdict:
    """The paper's ``checkTwoSimpleExpression`` for one (policy, user) pair.

    Returns :data:`PairVerdict.NR` when the pair is contradictory (no value
    satisfies both), :data:`PairVerdict.PR` when the policy constraint
    withholds part of what the user constraint admits, and
    :data:`PairVerdict.OK` otherwise.  Expressions on different attributes
    never interact (OK) — "checking is only necessary when S1.x = S2.x".
    """
    if policy_side.attribute != user_side.attribute:
        return PairVerdict.OK
    if intersection_empty(policy_side, user_side):
        return PairVerdict.NR
    if is_subset(user_side, policy_side):
        return PairVerdict.OK
    return PairVerdict.PR


def conjunction_verdict(
    literals: Sequence[Tuple[SimpleExpression, str]]
) -> PairVerdict:
    """Verdict for one DNF conjunction of origin-tagged literals.

    *literals* is a sequence of ``(simple_expression, origin)`` pairs with
    origin ``"policy"`` or ``"user"``.  Any contradictory pair — whatever
    the origins — makes the conjunction unsatisfiable (NR).  A PR verdict
    only arises from cross-origin pairs: the user's own literals
    constraining each other is not a policy conflict.
    """
    n = len(literals)
    worst = PairVerdict.OK
    for i in range(n):
        expr_i, origin_i = literals[i]
        for j in range(i + 1, n):
            expr_j, origin_j = literals[j]
            if expr_i.attribute != expr_j.attribute:
                continue
            if intersection_empty(expr_i, expr_j):
                return PairVerdict.NR
            if origin_i == origin_j:
                continue
            if origin_i == "policy":
                verdict = check_two_simple_expressions(expr_i, expr_j)
            else:
                verdict = check_two_simple_expressions(expr_j, expr_i)
            worst = max(worst, verdict)
    return worst


def dnf_verdict(conjunction_verdicts: Iterable[PairVerdict]) -> PairVerdict:
    """Aggregate per-conjunction verdicts per Step 3 of Section 3.5.

    "If all conjunctive expressions are marked with PR or NR, alert PR or
    NR, respectively": every conjunction NR → NR (no disjunct can produce
    output); otherwise every conjunction marked (NR or PR) → PR; otherwise
    no alert.
    """
    verdicts: List[PairVerdict] = list(conjunction_verdicts)
    if not verdicts:
        return PairVerdict.NR  # an empty disjunction is FALSE
    if all(v is PairVerdict.NR for v in verdicts):
        return PairVerdict.NR
    if all(v in (PairVerdict.NR, PairVerdict.PR) for v in verdicts):
        return PairVerdict.PR
    return PairVerdict.OK
