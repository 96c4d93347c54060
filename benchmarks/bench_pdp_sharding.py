"""PDP sharding benchmark — routed scale-out, scatter caching, workers.

Three sections, all landing in ``BENCH_pdp_sharding.json``:

**Makespan sweep (modeled).**  The PR 4 measurement, kept for
continuity: the request stream is routed into per-shard queues (routing
is one stable CRC32 hash — a stateless front-tier concern, excluded
from shard time), each shard's queue is timed separately on this
machine, and the aggregate throughput is ``requests / max(shard_time)``
— the wall clock of the slowest shard had the shards run in parallel,
i.e. a *model* that assumes one host per shard.

**Scatter caching (measured).**  A scatter-heavy workload — ≥50 % of
requests carry two resource-id values hashing to different shards, and
the stream revisits a zipf-skewed working set of distinct requests —
run with every spanning request re-gathered and re-merged (a direct
``decide(store.policies_for(request), ...)``, no scatter cache) versus
the cached single-flight scatter path.  Acceptance: ≥ 3x throughput cached vs
uncached at 4 shards (the CI smoke job relaxes to 2x).

**Worker pool (measured).**  The makespan model's assumption made real:
a :class:`~repro.xacml.sharding.ProcessShardPool` runs each shard's
indexed+cached PDP on its own ``multiprocessing`` worker and the
*actual wall clock* of pushing the whole request stream through
``evaluate_many`` is compared against one in-process PDP evaluating
the same stream.  Acceptance: ≥ 2x measured speedup at 4 shards (CI
smoke relaxes to 1.5x) — asserted only when the machine exposes ≥ 4
CPUs, because real parallel speedup cannot exist below that; the
numbers (and the CPU count) are recorded regardless, so a single-core
run still reports honest measurements instead of a model.

Workload: 1,200 literal-target policies over 400 resource streams and
300 subjects plus 24 wildcard-resource policies (replicated to every
shard, the over-approximation tax), and 4,000 *distinct* routed
requests so the decision caches cannot mask evaluation cost.  A
500-request sample is asserted decision-identical between every engine
pair before anything is timed.
"""

import gc
import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_header
from repro.xacml.attributes import RESOURCE_ID, Attribute, AttributeCategory, AttributeValue
from repro.xacml.pdp import PolicyDecisionPoint, decide
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
from repro.xacml.sharding import (
    ProcessShardPool,
    ShardedPDP,
    ShardedPolicyStore,
    shard_of,
)
from repro.xacml.store import PolicyStore

N_POLICIES = 1_200
N_WILDCARDS = 24
N_RESOURCES = 400
N_SUBJECTS = 300
N_REQUESTS = 4_000
SHARD_COUNTS = (1, 2, 4, 8)

#: Scatter-heavy workload: an ACL-shaped population (per-resource
#: policies whose *rules* discriminate subjects, so every request
#: touching a resource gathers all of its policies as candidates) and a
#: multi-resource request stream — the dashboard shape that motivates
#: scatter caching.
N_SCATTER_STREAM = 4_000
N_SCATTER_DISTINCT = 600
SCATTER_SHARE = 0.5
SCATTER_SHARDS = 4
N_SCATTER_RESOURCES = 120
POLICIES_PER_RESOURCE = 8
N_SCATTER_SUBJECTS = 40

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_pdp_sharding.json"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_policies(seed=2012):
    rng = random.Random(seed)
    policies = []
    for i in range(N_POLICIES):
        policies.append(
            Policy(
                f"policy:{i}",
                target=Target.for_ids(
                    subject=f"user{rng.randrange(N_SUBJECTS)}",
                    resource=f"stream{rng.randrange(N_RESOURCES)}",
                ),
                rules=[
                    Rule(
                        f"policy:{i}:r",
                        Effect.PERMIT if rng.random() < 0.8 else Effect.DENY,
                    )
                ],
            )
        )
    for i in range(N_WILDCARDS):
        policies.append(
            Policy(
                f"wildcard:{i}",
                target=Target.for_ids(subject=f"user{rng.randrange(N_SUBJECTS)}"),
                rules=[Rule(f"wildcard:{i}:r", Effect.PERMIT)],
            )
        )
    return policies


def build_requests(seed=7):
    rng = random.Random(seed)
    pairs = rng.sample(range(N_SUBJECTS * N_RESOURCES), N_REQUESTS)
    return [
        Request.simple(f"user{pair % N_SUBJECTS}", f"stream{pair // N_SUBJECTS}")
        for pair in pairs
    ]


def build_scatter_policies(seed=31):
    """ACL-shaped policies: per-resource targets, per-subject rules.

    The policy *target* names only the resource, so the index (and the
    shard gather) returns every policy of every requested resource as a
    candidate; the rule-level subject targets are only resolved inside
    ``decide`` — the uncached scatter path pays that merge-and-combine
    work on every spanning request, which is exactly what the decision
    cache amortises.
    """
    rng = random.Random(seed)
    policies = []
    for r in range(N_SCATTER_RESOURCES):
        for i in range(POLICIES_PER_RESOURCE):
            subject = f"user{rng.randrange(N_SCATTER_SUBJECTS)}"
            effect = Effect.PERMIT if rng.random() < 0.85 else Effect.DENY
            policies.append(
                Policy(
                    f"acl:{r}:{i}",
                    target=Target.for_ids(resource=f"stream{r}"),
                    rules=[
                        Rule(
                            f"acl:{r}:{i}:r",
                            effect,
                            target=Target.for_ids(subject=subject),
                        )
                    ],
                )
            )
    return policies


def build_scatter_stream(seed=5, n_shards=SCATTER_SHARDS):
    """A zipf-skewed stream whose working set is ≥50 % shard-spanning.

    Spanning requests carry two resource-id values chosen to hash to
    *different* shards, so they genuinely take the scatter path.
    """
    rng = random.Random(seed)
    distinct = []
    spanning = 0
    while len(distinct) < N_SCATTER_DISTINCT:
        subject = f"user{rng.randrange(N_SCATTER_SUBJECTS)}"
        first = f"stream{rng.randrange(N_SCATTER_RESOURCES)}"
        request = Request.simple(subject, first)
        if len(distinct) < N_SCATTER_DISTINCT * SCATTER_SHARE:
            second = f"stream{rng.randrange(N_SCATTER_RESOURCES)}"
            while shard_of(second, n_shards) == shard_of(first, n_shards):
                second = f"stream{rng.randrange(N_SCATTER_RESOURCES)}"
            request.add(
                Attribute(
                    AttributeCategory.RESOURCE,
                    RESOURCE_ID,
                    AttributeValue.string(second),
                )
            )
            spanning += 1
        distinct.append(request)
    # Zipf-ish revisit pattern over the working set (rank ~ 1/k).
    weights = [1.0 / (rank + 1) for rank in range(len(distinct))]
    stream = rng.choices(distinct, weights=weights, k=N_SCATTER_STREAM)
    return stream, spanning / len(distinct)


def build_pool_requests(seed=17):
    """Distinct routed requests over the ACL population.

    All unique (subject, resource) pairs, so neither side's decision
    cache can mask evaluation cost — the comparison isolates parallel
    evaluation against serial evaluation of identical work.
    """
    rng = random.Random(seed)
    pairs = rng.sample(
        range(N_SCATTER_SUBJECTS * N_SCATTER_RESOURCES), N_REQUESTS
    )
    return [
        Request.simple(
            f"user{pair % N_SCATTER_SUBJECTS}",
            f"stream{pair // N_SCATTER_SUBJECTS}",
        )
        for pair in pairs
    ]


def timed(fn):
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


def best_of(n, make_fn):
    """Best-of-n over freshly built closures (cold caches every round)."""
    return min(timed(make_fn()) for _ in range(n))


def single_instance_seconds(policies, requests):
    def make():
        store = PolicyStore()
        for policy in policies:
            store.load(policy)
        pdp = PolicyDecisionPoint(store)
        return lambda: [pdp.evaluate(request) for request in requests]

    return best_of(3, make)


def sharded_makespan_seconds(policies, requests, n_shards):
    """Per-shard queue times under the makespan model; returns
    (makespan, per-shard queue lengths)."""
    store = ShardedPolicyStore(n_shards)
    for policy in policies:
        store.load(policy)
    sharded = ShardedPDP(store)
    queues = [[] for _ in range(n_shards)]
    for request in requests:
        shard_ids = store.shards_for_request(request)
        assert len(shard_ids) == 1  # single-resource requests always route
        queues[shard_ids[0]].append(request)

    shard_seconds = []
    for shard_id, queue in enumerate(queues):
        pdp = sharded.shard_pdps[shard_id]
        best = None
        for _ in range(3):
            pdp.flush_cache()
            elapsed = timed(lambda: [pdp.evaluate(request) for request in queue])
            best = elapsed if best is None else min(best, elapsed)
        shard_seconds.append(best)
    return max(shard_seconds), [len(queue) for queue in queues]


def scatter_path_seconds(policies, stream, cached):
    """Wall clock of the scatter-heavy stream through a fresh engine."""
    def make():
        store = ShardedPolicyStore(SCATTER_SHARDS)
        for policy in policies:
            store.load(policy)
        sharded = ShardedPDP(store)
        if cached:
            return lambda: [sharded.evaluate(request) for request in stream]

        def uncached(request):
            # Routed requests still hit their shard PDP; only the
            # spanning ones lose the scatter cache.
            if len(store.shards_for_request(request)) == 1:
                return sharded.evaluate(request)
            return decide(store.policies_for(request), request, sharded.combining)

        return lambda: [uncached(request) for request in stream]

    return best_of(3, make)


def worker_pool_seconds(policies, requests, n_shards):
    """Measured wall clock of the full stream through a live pool."""
    store = ShardedPolicyStore(n_shards)
    for policy in policies:
        store.load(policy)
    with ProcessShardPool(store) as pool:
        best = None
        for _ in range(3):
            pool.flush_caches()
            elapsed = timed(lambda: pool.evaluate_many(requests))
            best = elapsed if best is None else min(best, elapsed)
    return best


def assert_equivalent_sample(policies, requests, n_shards, sample=500):
    single_store = PolicyStore()
    sharded_store = ShardedPolicyStore(n_shards)
    for policy in policies:
        single_store.load(policy)
        sharded_store.load(policy)
    single = PolicyDecisionPoint(single_store)
    sharded = ShardedPDP(sharded_store)
    for request in requests[:sample]:
        expected = single.evaluate(request)
        actual = sharded.evaluate(request)
        assert actual.decision is expected.decision
        assert actual.policy_id == expected.policy_id


def assert_pool_sample(policies, requests, n_shards, sample=500):
    single_store = PolicyStore()
    sharded_store = ShardedPolicyStore(n_shards)
    for policy in policies:
        single_store.load(policy)
        sharded_store.load(policy)
    single = PolicyDecisionPoint(single_store)
    with ProcessShardPool(sharded_store) as pool:
        got = pool.evaluate_many(requests[:sample])
    for request, actual in zip(requests[:sample], got):
        expected = single.evaluate(request)
        assert actual.decision is expected.decision
        assert actual.policy_id == expected.policy_id


def test_sharded_vs_single_instance_throughput(benchmark):
    relaxed = bool(os.environ.get("BENCH_SMOKE_RELAXED"))
    cpus = cpu_count()
    policies = build_policies()
    requests = build_requests()
    scatter_policies = build_scatter_policies()
    scatter_stream, spanning_share = build_scatter_stream()
    pool_requests = build_pool_requests()
    assert spanning_share >= 0.5
    assert_equivalent_sample(policies, requests, 4)
    assert_equivalent_sample(scatter_policies, scatter_stream, SCATTER_SHARDS)
    assert_pool_sample(scatter_policies, pool_requests, 4)

    def sweep():
        results = {}
        baseline = single_instance_seconds(policies, requests)
        results["single"] = {
            "seconds": baseline,
            "requests": N_REQUESTS,
            "throughput_rps": N_REQUESTS / baseline,
        }
        for n_shards in SHARD_COUNTS:
            makespan, queue_lengths = sharded_makespan_seconds(
                policies, requests, n_shards
            )
            results[f"shards_{n_shards}"] = {
                "model": "makespan",
                "makespan_seconds": makespan,
                "queue_lengths": queue_lengths,
                "aggregate_throughput_rps": N_REQUESTS / makespan,
                "speedup_vs_single": baseline / makespan,
            }
        uncached = scatter_path_seconds(scatter_policies, scatter_stream, cached=False)
        cached = scatter_path_seconds(scatter_policies, scatter_stream, cached=True)
        results["scatter_4"] = {
            "model": "measured",
            "policies": len(scatter_policies),
            "stream": N_SCATTER_STREAM,
            "distinct_requests": N_SCATTER_DISTINCT,
            "spanning_share": spanning_share,
            "uncached_seconds": uncached,
            "cached_seconds": cached,
            "uncached_throughput_rps": N_SCATTER_STREAM / uncached,
            "cached_throughput_rps": N_SCATTER_STREAM / cached,
            "speedup_vs_uncached": uncached / cached,
        }
        # Worker pool: measured on the evaluation-heavy ACL population
        # (≈100 µs/request), the regime where shipping work to another
        # process wins; the queue/pickle overhead (≈15 µs/request) is a
        # fixed tax the serial baseline does not pay, so light workloads
        # belong in-process — docs/performance.md quantifies the floor.
        acl_baseline = single_instance_seconds(scatter_policies, pool_requests)
        results["single_acl"] = {
            "seconds": acl_baseline,
            "requests": len(pool_requests),
            "throughput_rps": len(pool_requests) / acl_baseline,
        }
        for n_shards in (2, 4, 8):
            pool_seconds = worker_pool_seconds(
                scatter_policies, pool_requests, n_shards
            )
            results[f"worker_pool_{n_shards}"] = {
                "model": "measured",
                "cpus": cpus,
                "seconds": pool_seconds,
                "throughput_rps": len(pool_requests) / pool_seconds,
                "speedup_vs_single": acl_baseline / pool_seconds,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"PDP sharding — {N_POLICIES + N_WILDCARDS} policies, "
        f"{N_REQUESTS} distinct requests, {cpus} cpu(s)"
    )
    row = results["single"]
    print(f"  single          : {row['throughput_rps']:>10.0f} req/s")
    for n_shards in SHARD_COUNTS:
        row = results[f"shards_{n_shards}"]
        balance = max(row["queue_lengths"]) / (N_REQUESTS / n_shards)
        print(
            f"  {n_shards} shard(s), model: {row['aggregate_throughput_rps']:>10.0f} req/s"
            f"   ({row['speedup_vs_single']:.1f}x, "
            f"hottest shard {balance:.2f}x of even)"
        )
    row = results["scatter_4"]
    print(
        f"  scatter uncached: {row['uncached_throughput_rps']:>10.0f} req/s"
        f"   (spanning share {row['spanning_share']:.0%})"
    )
    print(
        f"  scatter cached  : {row['cached_throughput_rps']:>10.0f} req/s"
        f"   ({row['speedup_vs_uncached']:.1f}x vs uncached)"
    )
    row = results["single_acl"]
    print(f"  single, ACL     : {row['throughput_rps']:>10.0f} req/s")
    for n_shards in (2, 4, 8):
        row = results[f"worker_pool_{n_shards}"]
        print(
            f"  pool, {n_shards} worker(s): {row['throughput_rps']:>10.0f} req/s"
            f"   ({row['speedup_vs_single']:.1f}x measured)"
        )
    _write_results(results, cpus)

    # Acceptance gates.  The CI smoke job relaxes each (single-shot
    # timings on shared runners) but still fails outright if the fast
    # path stops being fast; equivalence assertions above stay strict.
    makespan_floor = 1.5 if relaxed else 2.0
    assert results["shards_4"]["speedup_vs_single"] >= makespan_floor
    scatter_floor = 2.0 if relaxed else 3.0
    assert results["scatter_4"]["speedup_vs_uncached"] >= scatter_floor
    # Real parallel speedup needs real CPUs: the pool gate applies only
    # where ≥4 cores exist (CI runners do; a 1-core container cannot
    # physically exceed 1x and records its measurements gate-free).
    if cpus >= 4:
        pool_floor = 1.5 if relaxed else 2.0
        assert results["worker_pool_4"]["speedup_vs_single"] >= pool_floor


def _write_results(results: dict, cpus: int) -> None:
    data = {
        "workload": {
            "policies": N_POLICIES,
            "wildcard_policies": N_WILDCARDS,
            "resources": N_RESOURCES,
            "subjects": N_SUBJECTS,
            "requests": N_REQUESTS,
            "scatter_stream": N_SCATTER_STREAM,
            "cpus": cpus,
        },
        **results,
    }
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
