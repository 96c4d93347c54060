"""Ablation A6 — deployment profiles (the paper's planned EC2/Azure move).

Section 6: "Our immediate plans are to migrate the framework to
commercial Cloud environments such as Amazon EC2 and Microsoft's Azure."
This bench replays the unique request sequence under three latency
profiles — the paper's intranet testbed, an EC2-like region and an
Azure-like region — and reports how the response-time composition shifts
(cloud deployments spend *more* of the budget on the client's WAN hop
and less inside the datacentre).
"""

from benchmarks.harness import make_runner, print_header
from repro.framework.network import SimulatedNetwork
from repro.framework.profiles import get_profile
from repro.workload.report import breakdown_summary


def run_profile(name, n_requests=300, n_policies=200, seed=7):
    runner, generator = make_runner(seed=seed, n_requests=n_requests, n_policies=n_policies)
    runner.network = SimulatedNetwork(get_profile(name, seed=seed))
    # Rebind every entity that charges the clock to the profiled network
    # (the server is simulation-free and never calls one).
    runner.proxy.network = runner.network
    runner.client.network = runner.network
    runner.direct.network = runner.network
    items = generator.generate()
    runner.load_policies(items)
    traces = runner.run_unique(items)
    return breakdown_summary(traces)


def test_deployment_profiles(benchmark):
    results = {}

    def sweep():
        for name in ("intranet", "ec2", "azure"):
            results[name] = run_profile(name)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation A6 — eXACML+ under deployment profiles")
    print(f"  {'profile':>9s} {'mean total':>11s} {'network share':>14s} "
          f"{'submit share':>13s}")
    for name, stats in results.items():
        print(
            f"  {name:>9s} {stats['total'].mean:>10.3f}s "
            f"{stats['network_share']:>14.2f} {stats['submit_share']:>13.2f}"
        )

    # Cloud deployments: faster intra-DC submission, heavier WAN share.
    assert results["ec2"]["submit_share"] < results["intranet"]["submit_share"]
    assert results["ec2"]["network_share"] > results["intranet"]["network_share"]
    # All profiles keep the access-control computation under 10 ms.
    for stats in results.values():
        assert stats["pdp"].mean < 0.01
        assert stats["query_graph"].mean < 0.01
