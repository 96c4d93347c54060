"""Ablation A1 — cost of the NR/PR filter check vs expression size.

Section 3.5 bounds the filter check by O(k·n²): k conjunctions in the
DNF, n simple expressions per conjunction.  This bench measures the real
check on synthesised conditions of growing width (n) and disjunct count
(k) and verifies the quadratic-in-n / linear-in-k growth empirically.
"""

import random

from benchmarks.harness import print_header, timed
from repro.core.warnings_check import check_filter_merge
from repro.expr.ast import AndExpression, Operator, OrExpression, SimpleExpression
from repro.streams.operators.filter import FilterOperator


def conjunction(rng, width, attrs):
    literals = tuple(
        SimpleExpression(
            rng.choice(attrs),
            rng.choice((Operator.GT, Operator.LT, Operator.GE, Operator.LE)),
            rng.randint(-50, 50),
        )
        for _ in range(width)
    )
    return literals[0] if width == 1 else AndExpression(literals)


def condition(rng, disjuncts, width, attrs):
    parts = tuple(conjunction(rng, width, attrs) for _ in range(disjuncts))
    return parts[0] if disjuncts == 1 else OrExpression(parts)


def make_pair(disjuncts, width, seed=7):
    """A (policy, user) filter pair; distinct attrs avoid trivial NR."""
    rng = random.Random(seed)
    attrs = [f"a{i}" for i in range(max(4, width))]
    policy = FilterOperator(condition(rng, disjuncts, width, attrs))
    user = FilterOperator(condition(rng, disjuncts, width, attrs))
    return policy, user


def check_many(pairs):
    for policy, user in pairs:
        check_filter_merge(policy, user)


def test_nrpr_check_cost_base(benchmark):
    pairs = [make_pair(2, 3, seed=s) for s in range(50)]
    benchmark(check_many, pairs)


def test_nrpr_cost_scaling(benchmark):
    benchmark.pedantic(
        check_many, args=([make_pair(2, 3, seed=s) for s in range(10)],),
        rounds=1, iterations=1,
    )

    print_header("Ablation A1 — NR/PR filter-check cost (paper bound: O(k·n²))")
    print(f"  {'k(disjuncts)':>13s} {'n(width)':>9s} {'time/check':>12s}")
    timings = {}
    for disjuncts, width in [(1, 2), (1, 4), (1, 8), (1, 16),
                             (2, 4), (4, 4), (8, 4), (16, 4)]:
        pairs = [make_pair(disjuncts, width, seed=s) for s in range(20)]
        repeats = 5
        per_check = timed(lambda: [check_many(pairs) for _ in range(repeats)]) / (
            repeats * len(pairs)
        )
        timings[(disjuncts, width)] = per_check
        print(f"  {disjuncts:>13d} {width:>9d} {per_check * 1e6:>9.1f} µs")

    # Quadratic-ish growth in n: width 16 costs clearly more than width 2
    # but far less than a cubic blow-up would produce.
    assert timings[(1, 16)] > timings[(1, 2)]
    assert timings[(1, 16)] < timings[(1, 2)] * 400
    # The merged DNF has k_policy × k_user conjunctions, so doubling k on
    # both sides roughly quadruples cost — still tractable at k=16.
    assert timings[(16, 4)] < 0.5, "check must stay well under a second"
