"""Tests for checkTwoSimpleExpression and its set algebra.

The paper notes the check needs 6² = 36 operator-pair comparisons; the
exhaustive test below validates every pair against a brute-force oracle
over a dense numeric grid.
"""

import pytest

from repro.expr.ast import Operator, SimpleExpression
from repro.expr.satisfiability import (
    PairVerdict,
    check_two_simple_expressions,
    conjunction_verdict,
    dnf_verdict,
    intersection_empty,
    is_subset,
    satisfies,
)

OPS = list(Operator)
#: Dense grid covering strictly-between, equal and outside cases for the
#: value pairs used below.
GRID = [x / 4.0 for x in range(-20, 41)]


def oracle_sets(s1, s2):
    in_both = [x for x in GRID if satisfies(s1, x) and satisfies(s2, x)]
    only_s2 = [x for x in GRID if satisfies(s2, x) and not satisfies(s1, x)]
    return in_both, only_s2


class TestExhaustiveOperatorPairs:
    """All 36 op pairs × three value relations, against the grid oracle.

    The grid contains points strictly between, equal to and outside the
    tested bounds, so for these operators grid-emptiness coincides with
    real-domain emptiness.
    """

    @pytest.mark.parametrize("op1", OPS)
    @pytest.mark.parametrize("op2", OPS)
    @pytest.mark.parametrize("v1,v2", [(2.0, 5.0), (5.0, 5.0), (5.0, 2.0)])
    def test_intersection_matches_oracle(self, op1, op2, v1, v2):
        s1 = SimpleExpression("x", op1, v1)
        s2 = SimpleExpression("x", op2, v2)
        in_both, _ = oracle_sets(s1, s2)
        assert intersection_empty(s1, s2) == (not in_both)

    @pytest.mark.parametrize("op1", OPS)
    @pytest.mark.parametrize("op2", OPS)
    @pytest.mark.parametrize("v1,v2", [(2.0, 5.0), (5.0, 5.0), (5.0, 2.0)])
    def test_verdict_matches_oracle(self, op1, op2, v1, v2):
        policy = SimpleExpression("x", op1, v1)
        user = SimpleExpression("x", op2, v2)
        in_both, only_user = oracle_sets(policy, user)
        verdict = check_two_simple_expressions(policy, user)
        if not in_both:
            assert verdict is PairVerdict.NR
        elif only_user:
            assert verdict is PairVerdict.PR
        else:
            assert verdict is PairVerdict.OK

    @pytest.mark.parametrize("op1", OPS)
    @pytest.mark.parametrize("op2", OPS)
    @pytest.mark.parametrize("v1,v2", [(2.0, 5.0), (5.0, 5.0), (5.0, 2.0)])
    def test_subset_matches_oracle(self, op1, op2, v1, v2):
        inner = SimpleExpression("x", op1, v1)
        outer = SimpleExpression("x", op2, v2)
        grid_subset = all(
            satisfies(outer, x) for x in GRID if satisfies(inner, x)
        )
        exact = is_subset(inner, outer)
        # Exact subset implies grid subset; the converse can fail only
        # when the witness lies off-grid, which these values avoid.
        if exact:
            assert grid_subset
        else:
            assert not grid_subset

    @pytest.mark.parametrize("op1", [Operator.EQ, Operator.NE])
    @pytest.mark.parametrize("op2", [Operator.EQ, Operator.NE])
    @pytest.mark.parametrize("v1,v2", [("a", "a"), ("a", "b")])
    def test_string_subset_matches_oracle(self, op1, op2, v1, v2):
        """The string half of the pair algebra: ``"c"`` stands for every
        string neither expression names, so the three-value universe
        decides each of the eight pairs exactly."""
        inner = SimpleExpression("tag", op1, v1)
        outer = SimpleExpression("tag", op2, v2)
        universe = ("a", "b", "c")
        expected = all(satisfies(outer, x) for x in universe if satisfies(inner, x))
        assert is_subset(inner, outer) == expected

    @pytest.mark.parametrize("op1", OPS)
    @pytest.mark.parametrize("op2", [Operator.EQ, Operator.NE])
    def test_mixed_types_are_never_subsets(self, op1, op2):
        number = SimpleExpression("x", op1, 5.0)
        string = SimpleExpression("x", op2, "five")
        assert not is_subset(number, string)
        assert not is_subset(string, number)


class TestPaperFigure5:
    """Figure 5's case: S1 = x >= v1 (policy), S2 = x <= v2 (user)."""

    def test_disjoint_when_v1_above_v2(self):
        policy = SimpleExpression("x", Operator.GE, 10)
        user = SimpleExpression("x", Operator.LE, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.NR

    def test_pr_when_ranges_overlap(self):
        policy = SimpleExpression("x", Operator.GE, 3)
        user = SimpleExpression("x", Operator.LE, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.PR

    def test_touching_bounds_still_satisfiable(self):
        policy = SimpleExpression("x", Operator.GE, 5)
        user = SimpleExpression("x", Operator.LE, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.PR


class TestExample3:
    """Section 3.5's Example 3 filters."""

    def test_pr_case(self):
        policy = SimpleExpression("a", Operator.GT, 8)
        user = SimpleExpression("a", Operator.GT, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.PR

    def test_ok_when_user_tighter(self):
        policy = SimpleExpression("a", Operator.GT, 5)
        user = SimpleExpression("a", Operator.GT, 8)
        assert check_two_simple_expressions(policy, user) is PairVerdict.OK

    def test_nr_case(self):
        policy = SimpleExpression("a", Operator.LT, 4)
        user = SimpleExpression("a", Operator.GT, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.NR


class TestStrings:
    def test_equal_strings_ok(self):
        policy = SimpleExpression("city", Operator.EQ, "sg")
        user = SimpleExpression("city", Operator.EQ, "sg")
        assert check_two_simple_expressions(policy, user) is PairVerdict.OK

    def test_different_strings_nr(self):
        policy = SimpleExpression("city", Operator.EQ, "sg")
        user = SimpleExpression("city", Operator.EQ, "kl")
        assert check_two_simple_expressions(policy, user) is PairVerdict.NR

    def test_ne_vs_eq(self):
        policy = SimpleExpression("city", Operator.NE, "sg")
        user = SimpleExpression("city", Operator.EQ, "sg")
        assert check_two_simple_expressions(policy, user) is PairVerdict.NR

    def test_eq_subset_of_ne(self):
        policy = SimpleExpression("city", Operator.NE, "kl")
        user = SimpleExpression("city", Operator.EQ, "sg")
        assert check_two_simple_expressions(policy, user) is PairVerdict.OK

    def test_ne_vs_ne_same_value_ok(self):
        policy = SimpleExpression("city", Operator.NE, "sg")
        user = SimpleExpression("city", Operator.NE, "sg")
        assert check_two_simple_expressions(policy, user) is PairVerdict.OK

    def test_ne_vs_ne_different_values_pr(self):
        policy = SimpleExpression("city", Operator.NE, "sg")
        user = SimpleExpression("city", Operator.NE, "kl")
        assert check_two_simple_expressions(policy, user) is PairVerdict.PR

    def test_string_vs_number_nr(self):
        policy = SimpleExpression("x", Operator.EQ, "five")
        user = SimpleExpression("x", Operator.GT, 5)
        assert check_two_simple_expressions(policy, user) is PairVerdict.NR


class TestDifferentAttributes:
    def test_no_interaction(self):
        policy = SimpleExpression("a", Operator.LT, 0)
        user = SimpleExpression("b", Operator.GT, 10)
        assert check_two_simple_expressions(policy, user) is PairVerdict.OK
        assert not intersection_empty(policy, user)


class TestConjunctionVerdict:
    def test_contradiction_within_same_origin_is_nr(self):
        literals = [
            (SimpleExpression("a", Operator.LT, 10), "user"),
            (SimpleExpression("a", Operator.EQ, 40), "user"),
        ]
        assert conjunction_verdict(literals) is PairVerdict.NR

    def test_same_origin_tightening_is_not_pr(self):
        literals = [
            (SimpleExpression("a", Operator.GT, 20), "user"),
            (SimpleExpression("a", Operator.LT, 30), "user"),
        ]
        assert conjunction_verdict(literals) is PairVerdict.OK

    def test_cross_origin_pr(self):
        literals = [
            (SimpleExpression("a", Operator.GT, 8), "policy"),
            (SimpleExpression("a", Operator.GT, 5), "user"),
        ]
        assert conjunction_verdict(literals) is PairVerdict.PR

    def test_nr_beats_pr(self):
        literals = [
            (SimpleExpression("a", Operator.GT, 8), "policy"),
            (SimpleExpression("a", Operator.GT, 5), "user"),
            (SimpleExpression("a", Operator.LT, 0), "user"),
        ]
        assert conjunction_verdict(literals) is PairVerdict.NR


class TestDnfVerdict:
    def test_all_nr(self):
        assert dnf_verdict([PairVerdict.NR, PairVerdict.NR]) is PairVerdict.NR

    def test_mixed_nr_pr_gives_pr(self):
        assert dnf_verdict([PairVerdict.NR, PairVerdict.PR]) is PairVerdict.PR

    def test_any_ok_clears(self):
        assert dnf_verdict([PairVerdict.NR, PairVerdict.OK]) is PairVerdict.OK

    def test_empty_dnf_is_nr(self):
        assert dnf_verdict([]) is PairVerdict.NR
