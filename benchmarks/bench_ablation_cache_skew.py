"""Ablation A4 — proxy cache benefit vs request-distribution skew.

Figure 6(b) uses the paper's single operating point (α = 0.223,
maxRank = 300).  This ablation sweeps the Zipf skew to show how hit rate
and mean response time respond — the justification for "the importance
to have [a] cache mechanism implemented in proxy when the request
distribution is heavy-tailed".
"""

from benchmarks.harness import make_runner, print_header


def run_at_alpha(alpha, n_requests=400, n_policies=300, max_rank=150):
    runner, generator = make_runner(
        n_requests=n_requests, n_policies=n_policies,
        cache_enabled=True, cache_capacity=60,
    )
    items = generator.generate()
    runner.load_policies(items)
    traces = runner.run_zipf(
        items, alpha=alpha, max_rank=max_rank, system_label="exacml+cache"
    )
    ok = [t for t in traces if t.outcome == "ok"]
    mean_total = sum(t.total for t in ok) / len(ok)
    return runner.proxy.hit_rate, mean_total


def test_cache_benefit_grows_with_skew(benchmark):
    print_header("Ablation A4 — cache hit rate and latency vs Zipf skew α")
    print(f"  {'alpha':>6s} {'hit rate':>9s} {'mean total(s)':>14s}")
    results = {}

    def sweep():
        for alpha in (0.0, 0.223, 0.6, 1.0, 1.4):
            hit_rate, mean_total = run_at_alpha(alpha)
            results[alpha] = (hit_rate, mean_total)
            print(f"  {alpha:>6.3f} {hit_rate:>9.2f} {mean_total:>14.3f}")

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Heavier tails → more hits → lower mean latency.
    assert results[1.4][0] > results[0.0][0]
    assert results[1.4][1] < results[0.0][1]
    # The paper's operating point already benefits measurably.
    assert results[0.223][0] > 0.2


def test_cache_run_cost(benchmark):
    benchmark.pedantic(
        run_at_alpha, args=(0.223,), kwargs={"n_requests": 200, "n_policies": 150},
        rounds=1, iterations=1,
    )
