"""Section 4.2 (text) — policy loading cost, plus PDP evaluation cost.

Paper: "Loading a policy onto server takes a small amount of time
without respect to the number of policies already loaded.  The average
loading time is 0.25 second with standard deviation of 0.06 second."

The second half benchmarks what a loaded store costs to *query*: the
seed's linear scan pays O(policies) per request, the indexed PDP only
evaluates the candidates its target index returns, and the decision
cache answers repeated (Zipf-popular) requests without evaluating at
all.
"""

from benchmarks.harness import gate, make_runner, print_header, timed
from repro.framework.metrics import summarize
from repro.workload.generator import WorkloadGenerator
from repro.workload.report import policy_load_summary
from repro.workload.zipf import zipf_sequence
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.store import PolicyStore


def test_policy_loading_flat_in_store_size(benchmark):
    runner, generator = make_runner()
    items = generator.generate()

    load_times = benchmark.pedantic(
        runner.load_policies, args=(items,), rounds=1, iterations=1
    )
    assert len(load_times) == 1000

    mean, stdev = policy_load_summary(load_times)
    print_header("Policy loading (paper: 0.25 s ± 0.06 s, flat in #policies)")
    print(f"  measured mean  : {mean:.3f} s   (paper 0.25 s)")
    print(f"  measured stdev : {stdev:.3f} s   (paper 0.06 s)")

    first_hundred = summarize(load_times[:100]).mean
    last_hundred = summarize(load_times[-100:]).mean
    print(f"  first 100 loads: {first_hundred:.3f} s")
    print(f"  last 100 loads : {last_hundred:.3f} s   (flatness check)")

    assert abs(mean - 0.25) < 0.02
    assert abs(stdev - 0.06) < 0.02
    # Independence of store size: early and late loads look the same.
    assert abs(first_hundred - last_hundred) < 0.05


def test_pdp_evaluation_indexed_vs_linear(benchmark):
    """PDP evaluation against 1000 loaded policies: linear reference
    scan vs target index vs index + decision cache, over the Table 3
    Zipf request stream.  All three must agree on every decision."""
    generator = WorkloadGenerator(seed=2012)
    items = generator.generate()
    policies = generator.unique_policies(items)
    requests = zipf_sequence(
        [item.request for item in items], length=400, seed=17
    )

    def compare():
        results = {}
        modes = {
            "linear": PolicyDecisionPoint.reference,
            "indexed": lambda store: PolicyDecisionPoint(store, cache_size=0),
            "indexed+cache": PolicyDecisionPoint,
        }
        for mode, build in modes.items():
            store = PolicyStore()
            for policy in policies:
                store.load(policy)
            pdp = build(store)
            decisions = []
            elapsed = timed(
                lambda: decisions.extend(pdp.evaluate(request) for request in requests)
            )
            results[mode] = (
                elapsed,
                [(r.decision, r.policy_id) for r in decisions],
                pdp.cache_stats()["hit_rate"],
            )
        return results

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    linear_elapsed, linear_decisions, _ = results["linear"]
    print_header(
        f"PDP evaluation — {len(policies)} policies, {len(requests)} Zipf requests"
    )
    for mode, (elapsed, decisions, hit_rate) in results.items():
        per_request = elapsed / len(requests) * 1e6
        note = f"   (hit rate {hit_rate:.0%})" if mode == "indexed+cache" else ""
        print(
            f"  {mode:>14s}: {elapsed:8.3f} s total  {per_request:9.1f} µs/request"
            f"   {linear_elapsed / elapsed:6.1f}x{note}"
        )
        assert decisions == linear_decisions, f"{mode} diverged from linear scan"

    # The index prunes ~all of the 1000-policy scan (measured ~18x); 5x
    # leaves room for scheduler noise on single-shot CI timings without
    # letting a disabled fast path slip through.
    gate("policy_loading", "indexed_vs_linear.speedup",
         linear_elapsed / results["indexed"][0], 5.0)
    # The cached run's win over the bare index is milliseconds — too
    # small to assert on a single-shot timing — so assert the cache
    # actually served the Zipf repeats instead.
    assert results["indexed+cache"][2] > 0.2
