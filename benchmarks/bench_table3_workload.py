"""Table 3 — workload generation at the paper's exact parameters.

Regenerates the experiment inputs: 1500 requests over 1000 unique
policies with query-graph shapes drawn from the composition
160:170:130:124:254:290:372, and checks the Zipf sequence parameters
(α = 0.223, maxRank = 300).
"""

from collections import Counter

from benchmarks.harness import print_header
from repro.workload.generator import (
    SHAPE_COMPOSITION,
    TABLE3,
    WorkloadGenerator,
)
from repro.workload.zipf import zipf_ranks


def test_table3_workload_generation(benchmark):
    generator = WorkloadGenerator(seed=2012)
    items = benchmark.pedantic(generator.generate, rounds=1, iterations=1)

    assert len(items) == TABLE3.n_requests == 1500
    unique_policies = {item.policy.policy_id for item in items}
    assert len(unique_policies) == TABLE3.n_policies == 1000

    print_header("Table 3 workload — shape composition (paper : measured)")
    shape_counts = Counter(item.shape for item in items)
    total_share = sum(SHAPE_COMPOSITION.values())
    for shape, paper_share in SHAPE_COMPOSITION.items():
        expected = round(paper_share * TABLE3.n_requests / total_share)
        print(f"  {shape:>9s}: paper≈{expected:4d}  measured={shape_counts[shape]:4d}")
    # The generated composition must track the paper's within rounding.
    for shape, paper_share in SHAPE_COMPOSITION.items():
        expected = paper_share * TABLE3.n_requests / total_share
        assert abs(shape_counts[shape] - expected) <= 0.05 * TABLE3.n_requests

    with_queries = sum(1 for item in items if item.user_query is not None)
    print(f"  requests carrying a customised user query: {with_queries}")
    print(f"  direct-query scripts generated: {len(items)}")

    ranks = zipf_ranks(
        TABLE3.n_requests, TABLE3.zipf_alpha, TABLE3.zipf_max_rank, seed=42
    )
    assert max(ranks) <= 300 and min(ranks) >= 1
    print(f"  Zipf sequence: {len(set(ranks))} distinct ranks of maxRank=300, "
          f"alpha={TABLE3.zipf_alpha}")
