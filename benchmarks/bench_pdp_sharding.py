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
requests carry two subject-id values hashing to different shards, and
the stream revisits a zipf-skewed working set of distinct requests —
run with every spanning request re-gathered and re-merged (a direct
``decide(store.policies_for(request), ...)``, no scatter cache) versus
the cached single-flight scatter path.  Gate: ≥ 2x throughput cached
vs uncached at 4 shards (measured ~5.5x).

**Worker pool (measured).**  The makespan model's assumption made real:
a :class:`~repro.xacml.sharding.ProcessShardPool` runs each shard's
indexed+cached PDP on its own ``multiprocessing`` worker and the
*actual wall clock* of pushing the whole request stream through
``evaluate_many`` is compared against one in-process PDP evaluating
the same stream.  Gate: ≥ 1.5x measured speedup at 4 shards — asserted
only when the machine exposes ≥ 4 CPUs, because real parallel speedup
cannot exist below that; the numbers (and the CPU count) are recorded
regardless, so a single-core run still reports honest measurements
instead of a model.

Workload: 1,200 literal-target policies over 400 resource streams and
300 subjects plus 24 wildcard-subject policies (resource-only targets,
replicated to every shard: the over-approximation tax), and 4,000
*distinct* routed requests so the decision caches cannot mask
evaluation cost.  Placement hashes the subject-id.  A 500-request
sample is asserted decision-identical between every engine pair before
anything is timed.
"""

import os
import random

from benchmarks.harness import best_of, emit, gate, print_header
from repro.xacml.attributes import SUBJECT_ID, Attribute, AttributeCategory, AttributeValue
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

#: Scatter-heavy workload: an ACL-shaped population (per-subject
#: policies whose *rules* discriminate resources, so every request by a
#: subject gathers all of its policies as candidates) and a
#: multi-subject request stream (a group acting together) — the shape
#: that motivates scatter caching.
N_SCATTER_STREAM = 4_000
N_SCATTER_DISTINCT = 600
SCATTER_SHARE = 0.5
SCATTER_SHARDS = 4
N_SCATTER_SUBJECTS = 120
POLICIES_PER_SUBJECT = 8
N_SCATTER_RESOURCES = 40


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
                target=Target.for_ids(resource=f"stream{rng.randrange(N_RESOURCES)}"),
                rules=[Rule(f"wildcard:{i}:r", Effect.PERMIT)],
            )
        )
    return policies


def build_requests(seed, n_subjects, n_resources):
    """Distinct routed requests: all unique (subject, resource) pairs,
    so no decision cache can mask evaluation cost."""
    rng = random.Random(seed)
    pairs = rng.sample(range(n_subjects * n_resources), N_REQUESTS)
    return [
        Request.simple(f"user{pair % n_subjects}", f"stream{pair // n_subjects}")
        for pair in pairs
    ]


def build_scatter_policies(seed=31):
    """ACL-shaped policies: per-subject targets, per-resource rules.

    The policy *target* names only the subject, so the index (and the
    shard gather) returns every policy of every requesting subject as a
    candidate; the rule-level resource targets are only resolved inside
    ``decide`` — the uncached scatter path pays that merge-and-combine
    work on every spanning request, which is exactly what the decision
    cache amortises.
    """
    rng = random.Random(seed)
    policies = []
    for s in range(N_SCATTER_SUBJECTS):
        for i in range(POLICIES_PER_SUBJECT):
            resource = f"stream{rng.randrange(N_SCATTER_RESOURCES)}"
            effect = Effect.PERMIT if rng.random() < 0.85 else Effect.DENY
            policies.append(
                Policy(
                    f"acl:{s}:{i}",
                    target=Target.for_ids(subject=f"user{s}"),
                    rules=[
                        Rule(
                            f"acl:{s}:{i}:r",
                            effect,
                            target=Target.for_ids(resource=resource),
                        )
                    ],
                )
            )
    return policies


def build_scatter_stream(seed=5, n_shards=SCATTER_SHARDS):
    """A zipf-skewed stream whose working set is ≥50 % shard-spanning.

    Spanning requests carry two subject-id values chosen to hash to
    *different* shards, so they genuinely take the scatter path.
    """
    rng = random.Random(seed)
    distinct = []
    spanning = 0
    while len(distinct) < N_SCATTER_DISTINCT:
        resource = f"stream{rng.randrange(N_SCATTER_RESOURCES)}"
        first = f"user{rng.randrange(N_SCATTER_SUBJECTS)}"
        request = Request.simple(first, resource)
        if len(distinct) < N_SCATTER_DISTINCT * SCATTER_SHARE:
            second = f"user{rng.randrange(N_SCATTER_SUBJECTS)}"
            while shard_of(second, n_shards) == shard_of(first, n_shards):
                second = f"user{rng.randrange(N_SCATTER_SUBJECTS)}"
            request.add(
                Attribute(
                    AttributeCategory.SUBJECT,
                    SUBJECT_ID,
                    AttributeValue.string(second),
                )
            )
            spanning += 1
        distinct.append(request)
    # Zipf-ish revisit pattern over the working set (rank ~ 1/k).
    weights = [1.0 / (rank + 1) for rank in range(len(distinct))]
    stream = rng.choices(distinct, weights=weights, k=N_SCATTER_STREAM)
    return stream, spanning / len(distinct)


def loaded(store, policies):
    for policy in policies:
        store.load(policy)
    return store


def single_instance(policies, requests):
    def make():
        pdp = PolicyDecisionPoint(loaded(PolicyStore(), policies))
        return lambda: [pdp.evaluate(request) for request in requests]

    seconds = best_of(3, make)
    return {
        "seconds": seconds,
        "requests": len(requests),
        "throughput_rps": len(requests) / seconds,
    }


def sharded_makespan_seconds(policies, requests, n_shards):
    """Per-shard queue times under the makespan model; returns
    (makespan, per-shard queue lengths)."""
    store = loaded(ShardedPolicyStore(n_shards), policies)
    sharded = ShardedPDP(store)
    queues = [[] for _ in range(n_shards)]
    for request in requests:
        shard_ids = store.shards_for_request(request)
        assert len(shard_ids) == 1  # single-subject requests always route
        queues[shard_ids[0]].append(request)

    shard_seconds = []
    for pdp, queue in zip(sharded.shard_pdps, queues):

        def make():
            pdp.flush_cache()
            return lambda: [pdp.evaluate(request) for request in queue]

        shard_seconds.append(best_of(3, make))
    return max(shard_seconds), [len(queue) for queue in queues]


def scatter_path_seconds(policies, stream, cached):
    """Wall clock of the scatter-heavy stream through a fresh engine."""
    def make():
        store = loaded(ShardedPolicyStore(SCATTER_SHARDS), policies)
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
    with ProcessShardPool(loaded(ShardedPolicyStore(n_shards), policies)) as pool:

        def make():
            pool.flush_caches()
            return lambda: pool.evaluate_many(requests)

        return best_of(3, make)


def assert_equivalent_sample(policies, requests, n_shards, pool=False, sample=500):
    """The sharded PDP (or, with *pool*, a live worker pool) decides a
    request sample exactly as one single-store PDP does."""
    single = PolicyDecisionPoint(loaded(PolicyStore(), policies))
    sharded_store = loaded(ShardedPolicyStore(n_shards), policies)
    if pool:
        with ProcessShardPool(sharded_store) as workers:
            got = workers.evaluate_many(requests[:sample])
    else:
        got = ShardedPDP(sharded_store).evaluate_many(requests[:sample])
    for request, actual in zip(requests[:sample], got):
        expected = single.evaluate(request)
        assert actual.decision is expected.decision
        assert actual.policy_id == expected.policy_id


def test_sharded_vs_single_instance_throughput(benchmark):
    cpus = cpu_count()
    policies = build_policies()
    requests = build_requests(7, N_SUBJECTS, N_RESOURCES)
    scatter_policies = build_scatter_policies()
    scatter_stream, spanning_share = build_scatter_stream()
    # Over the ACL population: the pool comparison isolates parallel
    # against serial evaluation of identical, uncacheable work.
    pool_requests = build_requests(17, N_SCATTER_SUBJECTS, N_SCATTER_RESOURCES)
    assert spanning_share >= 0.5
    assert_equivalent_sample(policies, requests, 4)
    assert_equivalent_sample(scatter_policies, scatter_stream, SCATTER_SHARDS)
    assert_equivalent_sample(scatter_policies, pool_requests, 4, pool=True)

    def sweep():
        results = {
            "workload": {
                "policies": N_POLICIES,
                "wildcard_policies": N_WILDCARDS,
                "resources": N_RESOURCES,
                "subjects": N_SUBJECTS,
                "requests": N_REQUESTS,
                "scatter_stream": N_SCATTER_STREAM,
                "cpus": cpus,
            }
        }
        results["single"] = single_instance(policies, requests)
        baseline = results["single"]["seconds"]
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
        results["single_acl"] = single_instance(scatter_policies, pool_requests)
        acl_baseline = results["single_acl"]["seconds"]
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
    for section, row in results.items():
        emit("pdp_sharding", section, row)

    # Each gate fails outright if its fast path stops being fast; the
    # equivalence assertions above are exact.
    gate("pdp_sharding", "shards_4.speedup_vs_single",
         results["shards_4"]["speedup_vs_single"], 1.5)
    gate("pdp_sharding", "scatter_4.speedup_vs_uncached",
         results["scatter_4"]["speedup_vs_uncached"], 2.0)
    # Real parallel speedup needs real CPUs: the pool gate applies only
    # where ≥4 cores exist (CI runners do; a 1-core container cannot
    # physically exceed 1x and records its measurements gate-free).
    if cpus >= 4:
        gate("pdp_sharding", "worker_pool_4.speedup_vs_single",
             results["worker_pool_4"]["speedup_vs_single"], 1.5)
