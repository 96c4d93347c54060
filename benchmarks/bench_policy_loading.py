"""Section 4.2 (text) — policy loading cost, plus PDP evaluation cost.

Paper: "Loading a policy onto server takes a small amount of time
without respect to the number of policies already loaded.  The average
loading time is 0.25 second with standard deviation of 0.06 second."

The second half benchmarks what a loaded store costs to *query*: the
seed's linear scan pays O(policies) per request, the indexed PDP only
evaluates the candidates its target index returns, and the decision
cache answers repeated (Zipf-popular) requests without evaluating at
all.

The third (``churn``) prices what a store event costs a *warm* decision
cache: invalidation is targeted through the cache's request-side
literal index, so an event for a policy no cached request can reach
must cost the same whatever the cache holds, and must evict nothing.

The fourth (``cold_lookup``) prices a decision-cache miss's candidate
lookup: every policy shares the ``read`` action, so the lookup may
build only the smallest category's union and must cost the same at
180 and at 18,000 loaded policies.
"""

from benchmarks.harness import ROUNDS, best_of, emit, gate, make_runner, print_header, timed
from repro.framework.metrics import summarize
from repro.workload.generator import WorkloadGenerator
from repro.workload.report import policy_load_summary
from repro.workload.zipf import zipf_sequence
from repro.xacml.index import PolicyIndex
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
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


CHURN_RESOURCES = tuple(f"stream{i}" for i in range(6))
CHURN_EVENTS = 1000
CHURN_EVENT_KINDS = ("loaded", "updated", "removed")


def _permit(policy_id, subject=None, resource=None, action=None):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject, resource=resource, action=action),
        rules=[Rule(f"{policy_id}:r", Effect.PERMIT)],
    )


def _warm_pdp(entries):
    """A PDP whose cache holds *entries* decisions, spread evenly over
    ``CHURN_RESOURCES``, plus the requests that filled it."""
    store = PolicyStore()
    for resource in CHURN_RESOURCES:
        store.load(_permit(f"p-{resource}", resource=resource))
    pdp = PolicyDecisionPoint(store, cache_size=entries)
    requests = [
        Request.simple(f"user{i}", CHURN_RESOURCES[i % len(CHURN_RESOURCES)])
        for i in range(entries)
    ]
    for request in requests:
        pdp.evaluate(request)
    assert len(pdp.cache) == entries
    return store, pdp, requests


def _event_costs(entries):
    """µs per store event against a warm cache of *entries* decisions:
    each kind of event for a policy no cached request can reach, and an
    ``updated`` whose new target reaches one resource's share of it."""
    stranger = _permit("p-stranger", subject="nobody", resource=CHURN_RESOURCES[0])
    related = _permit("p-stranger", resource=CHURN_RESOURCES[3])
    cache = _warm_pdp(entries)[1].cache
    row = {"entries": entries}
    for event in CHURN_EVENT_KINDS:
        def burst():
            for _ in range(CHURN_EVENTS):
                cache.on_store_event(event, stranger)
        row[f"unrelated_{event}_us"] = best_of(ROUNDS, lambda: burst) / CHURN_EVENTS * 1e6
    assert len(cache) == entries
    assert (cache.targeted_evictions, cache.full_flushes) == (0, 0)

    last = {}

    def make():
        warm = last["cache"] = _warm_pdp(entries)[1].cache
        return lambda: warm.on_store_event("updated", related)

    row["related_updated_us"] = best_of(ROUNDS, make) * 1e6
    row["related_evicted"] = last["cache"].targeted_evictions
    assert abs(row["related_evicted"] - entries / len(CHURN_RESOURCES)) <= 1
    return row


def _replay_across_unrelated_loads(loads=100):
    """Hit rate of a Zipf replay after *loads* policies for never-requested
    subjects went through the real store."""
    store, pdp, requests = _warm_pdp(256)
    stream = zipf_sequence(requests, length=2000, max_rank=256, seed=23)
    for request in stream:
        pdp.evaluate(request)
    for i in range(loads):
        store.load(_permit(f"p-new{i}", subject=f"newcomer{i}",
                           resource=CHURN_RESOURCES[i % len(CHURN_RESOURCES)]))
    hits_before = pdp.cache.hits
    for request in stream:
        pdp.evaluate(request)
    return {
        "requests": len(stream),
        "unrelated_loads": loads,
        "hit_rate": (pdp.cache.hits - hits_before) / len(stream),
        "full_flushes": pdp.cache.full_flushes,
    }


def test_churn_invalidation_cost(benchmark):
    """What one store event costs a warm decision cache, by cache size:
    unrelated events (a subject no cached request carries) must cost the
    same at 256 and at 4,096 entries and keep every entry warm; a
    related event pays for what it evicts."""
    result = benchmark.pedantic(
        lambda: {
            "sizes": {str(n): _event_costs(n) for n in (256, 4096)},
            "replay": _replay_across_unrelated_loads(),
        },
        rounds=1, iterations=1,
    )
    emit("policy_loading", "churn", result)
    print_header("Decision-cache invalidation cost (µs per event, warm cache)")
    for entries, row in result["sizes"].items():
        print(
            f"  {entries:>5s} entries: unrelated loaded {row['unrelated_loaded_us']:6.2f}"
            f"  updated {row['unrelated_updated_us']:6.2f}"
            f"  removed {row['unrelated_removed_us']:6.2f}"
            f"   related updated {row['related_updated_us']:8.1f}"
            f" (evicts {row['related_evicted']})"
        )
    print(f"  Zipf replay hit rate after 100 unrelated loads: "
          f"{result['replay']['hit_rate']:.3f}")

    def unrelated_cost(row):
        return sum(row[f"unrelated_{event}_us"] for event in CHURN_EVENT_KINDS)

    gate("policy_loading", "churn.replay_hit_rate", result["replay"]["hit_rate"], 0.99)
    # An event for an unreachable policy touches no entry, so its cost
    # may not grow with the cache (the cache walk it replaced read ~16x).
    gate("policy_loading", "churn.unrelated_cost_4096_vs_256",
         unrelated_cost(result["sizes"]["4096"]) / unrelated_cost(result["sizes"]["256"]),
         ceiling=3.0)


COLD_SIZES = (180, 1800, 18000)
COLD_LOOKUPS = 5000


def _lookup_cost(policies):
    """µs per ``candidate_ids`` over *policies* subject-keyed policies
    that share one action and ``CHURN_RESOURCES``."""
    index = PolicyIndex()
    for i in range(policies):
        index.add(_permit(f"p{i}", subject=f"user{i}",
                          resource=CHURN_RESOURCES[i % len(CHURN_RESOURCES)],
                          action="read"))
    request = Request.simple("user7", CHURN_RESOURCES[7 % len(CHURN_RESOURCES)])
    assert index.candidate_ids(request) == {"p7"}

    def burst():
        for _ in range(COLD_LOOKUPS):
            index.candidate_ids(request)

    return best_of(ROUNDS, lambda: burst) / COLD_LOOKUPS * 1e6


def test_cold_lookup_flat_in_store_size(benchmark):
    """A decision-cache miss's candidate lookup, by store size: the
    shared action bucket holds every policy, so a lookup that copied it
    would grow with the store (the per-category copy it replaced read
    3.01 / 12.85 / 359 µs)."""
    result = benchmark.pedantic(
        lambda: {str(n): _lookup_cost(n) for n in COLD_SIZES}, rounds=1, iterations=1
    )
    emit("policy_loading", "cold_lookup", result)
    print_header("Candidate lookup on a cache miss (µs per lookup)")
    for policies, us in result.items():
        print(f"  {policies:>6s} policies: {us:6.2f}")
    gate("policy_loading", "cold_lookup.cost_18000_vs_180",
         result["18000"] / result["180"], ceiling=2.0)
