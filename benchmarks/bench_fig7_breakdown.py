"""Figure 7 — detailed processing time of AC requests, at both scales.

Per-request breakdown: total response time, PDP evaluation, query-graph
manipulation, submission to the DSMS.

**7(a), 100 requests / 50 policies.**  PDP and query-graph times stay
below 0.01 s; submission takes ~1/3 of total on average with much larger
variance; the slow cases cluster at the start of the sequence
(StreamBase connection establishment).

**7(b), 1500 requests / 1000 policies.**  The scalability counterpart:
despite 20× more loaded policies and 15× more requests, PDP and
query-graph manipulation stay below 0.01 s and "the response time for
eXACML+ to process AC requests is consistent for over 99% of the
requests".
"""

import pytest

from benchmarks.harness import make_runner, print_header
from repro.workload.report import breakdown_summary, breakdown_table


def assert_7a(stats, traces):
    assert 0.15 < stats["submit_share"] < 0.55
    # Slow submissions cluster at the beginning (connection establishment).
    early = max(t.dsms_submit for t in traces[:8])
    late = max(t.dsms_submit for t in traces[20:])
    print(f"  max submit (first 8): {early:.2f} s   max submit (rest): {late:.2f} s")
    assert early > late, "slow first connections must appear at sequence start"


def assert_7b(stats, traces):
    print(f"  PDP p99            : {stats['pdp'].p99 * 1000:.2f} ms")
    print(f"  consistent fraction: {stats['consistent_fraction']:.4f} "
          f"(paper: > 0.99 within a small band)")
    assert stats["consistent_fraction"] > 0.99
    # Scalability: PDP time with 1000 policies must stay the same order
    # of magnitude as the request pipeline — no blow-up with store size.
    assert stats["pdp"].p99 < 0.02


#: figure → (requests, policies, the assertions only that size makes)
SIZES = {
    "7a": (100, 50, assert_7a),
    "7b": (1500, 1000, assert_7b),
}


@pytest.mark.parametrize("figure", SIZES)
def test_fig7_breakdown(benchmark, figure):
    n_requests, n_policies, assert_size = SIZES[figure]

    def run_breakdown():
        runner, generator = make_runner(n_requests=n_requests, n_policies=n_policies)
        items = generator.generate()
        runner.load_policies(items)
        return runner.run_unique(items)

    traces = benchmark.pedantic(run_breakdown, rounds=1, iterations=1)
    assert len(traces) == n_requests

    print_header(
        f"Figure {figure[0]}({figure[1]}) — processing time breakdown, "
        f"{n_requests} requests / {n_policies} policies"
    )
    print(breakdown_table(traces, sample_every=n_requests // 10))
    stats = breakdown_summary(traces)
    print()
    print(f"  PDP mean            : {stats['pdp'].mean * 1000:.2f} ms "
          f"(paper: < 10 ms, consistent)")
    print(f"  QueryGraph mean     : {stats['query_graph'].mean * 1000:.2f} ms")
    print(f"  PDP+graph < 10 ms   : {stats['pdp_graph_under_10ms']:.2f} of requests")
    print(f"  DSMS submit share   : {stats['submit_share']:.2f} (paper: ~1/3)")

    assert stats["pdp"].mean < 0.01
    assert stats["query_graph"].mean < 0.01
    assert stats["pdp_graph_under_10ms"] > 0.95
    assert_size(stats, traces)
