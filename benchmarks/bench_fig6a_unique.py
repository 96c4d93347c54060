"""Figure 6(a) — CDF of request-fulfilment time, unique sequence.

1500 direct queries and 1500 unique eXACML+ requests (Table 3).  Paper
shape: both systems answer most requests in under one second; the direct
query curve is tighter and to the left; eXACML+ carries a roughly
constant overhead dominated by network traffic (~2/3 of response time).
"""

from benchmarks.harness import make_runner, print_header
from repro.workload.report import breakdown_summary, summary_table


def run_unique_experiment():
    runner, generator = make_runner()
    items = generator.generate()
    runner.load_policies(items)
    runner.run_direct(items)
    traces = runner.run_unique(items)
    return runner, traces


def test_fig6a_unique_sequence(benchmark):
    runner, traces = benchmark.pedantic(
        run_unique_experiment, rounds=1, iterations=1
    )
    metrics = runner.metrics

    print_header("Figure 6(a) — CDF of time to fulfil requests (unique sequence)")
    print(metrics.ascii_cdf(["direct", "exacml+"]))
    print()
    print(summary_table(metrics, ["direct", "exacml+"]))

    stats = breakdown_summary(traces)
    print()
    print(f"  eXACML+ network share of total : {stats['network_share']:.2f} "
          f"(paper: about two thirds)")
    print(f"  sub-second fraction (eXACML+)  : {stats['sub_second_fraction']:.3f} "
          f"(paper: most requests < 1 s)")

    direct = metrics.summary("direct")
    exacml = metrics.summary("exacml+")
    # Shape assertions: who wins, and by what kind of factor.
    assert direct.mean < exacml.mean
    assert direct.p50 < exacml.p50
    assert exacml.mean / direct.mean < 4.0, "overhead must stay roughly constant"
    assert stats["sub_second_fraction"] > 0.9
    assert 0.45 < stats["network_share"] < 0.85
