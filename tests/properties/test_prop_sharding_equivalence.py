"""Differential tests: ShardedPDP ≡ reference single-store PDP.

The sharded engine (`repro.xacml.sharding`) hash-partitions policies by
a pluggable strategy (resource keys, subject keys, or the per-policy
composite), replicates wildcard / non-indexable targets to every shard,
routes each request to the owning shard's PDP (scattering — through the
cached single-flight scatter path — when a request's partitioned values
span several shards) and fans invalidation through a bus.  All of that
must be *decision- and obligation-identical* to one
``PolicyDecisionPoint.reference()`` over a single store — across shard
counts {1, 2, 8}, every partitioner, every built-in combining
algorithm, and interleaved load/update/remove mutations, with
equivalence re-checked after every single mutation so
cache-invalidation interleavings (shard caches AND the scatter cache)
are covered.  A :class:`ProcessShardPool` over real worker processes
must match too — in-process and worker-pool are pinned against the
same reference below.

Policy/request strategies are shared with the PR 1 harness
(``test_prop_pdp_equivalence``); this module widens the request shapes
with multi-valued resources and subjects (the scatter paths) and
resource-less requests (the wildcard-only route under resource keys,
the routed fast path under subject keys).
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from test_prop_pdp_equivalence import (
    ACTIONS,
    COMBINING,
    RESOURCES,
    SUBJECTS,
    build_policy,
    mutations,
    policy_specs,
)

from repro.errors import PolicyStoreError
from repro.xacml.attributes import (
    RESOURCE_ID,
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
from repro.xacml.sharding import (
    CompositeKeyPartitioner,
    ProcessShardPool,
    ShardedPDP,
    ShardedPolicyStore,
    SubjectKeyPartitioner,
    shard_of,
)
from repro.xacml.store import PolicyStore

SHARD_COUNTS = (1, 2, 8)
PARTITIONERS = ("resource", "subject", "composite")


def make_sharded_pair(
    n_shards, combining="first-applicable", cache_size=8, partitioner=None
):
    """A sharded PDP and a single-store reference PDP.

    Unlike the PR 1 harness the two sides cannot share a store, so
    ``apply`` mirrors every mutation into both.
    """
    sharded_store = ShardedPolicyStore(n_shards, partitioner=partitioner)
    sharded = ShardedPDP(sharded_store, combining, cache_size=cache_size)
    reference_store = PolicyStore()
    reference = PolicyDecisionPoint.reference(reference_store, combining)

    def apply(kind, *args):
        getattr(sharded_store, kind)(*args)
        getattr(reference_store, kind)(*args)

    return sharded, reference, apply


def assert_equivalent(sharded, reference, request):
    expected = reference.evaluate(request)
    actual = sharded.evaluate(request)
    assert actual.decision is expected.decision
    assert actual.policy_id == expected.policy_id
    assert actual.obligations == expected.obligations
    assert actual.status_message == expected.status_message


# -- request shapes ----------------------------------------------------------------
#
# The base shape plus the routing edge cases the single-store engine
# never distinguishes: several resource-id or subject-id values (may
# span shards → scatter path, on the partitioner's own dimension) and
# no resource-id at all (wildcard-only → shard 0 under resource keys,
# subject-routed under subject keys).

@st.composite
def sharding_requests(draw):
    shape = draw(
        st.sampled_from(
            ("simple", "multi-resource", "multi-subject", "no-resource")
        )
    )
    if shape == "no-resource":
        request = Request()
        request.add(
            Attribute(
                AttributeCategory.SUBJECT,
                SUBJECT_ID,
                AttributeValue.string(draw(st.sampled_from(SUBJECTS))),
            )
        )
        return request
    request = Request.simple(
        draw(st.sampled_from(SUBJECTS + ("eve",))),
        draw(st.sampled_from(RESOURCES + ("other",))),
        draw(st.sampled_from(ACTIONS)),
        environment={"clearance": draw(st.integers(min_value=0, max_value=5))},
    )
    if shape == "multi-resource":
        request.add(
            Attribute(
                AttributeCategory.RESOURCE,
                RESOURCE_ID,
                AttributeValue.string(draw(st.sampled_from(RESOURCES))),
            )
        )
    elif shape == "multi-subject":
        request.add(
            Attribute(
                AttributeCategory.SUBJECT,
                SUBJECT_ID,
                AttributeValue.string(draw(st.sampled_from(SUBJECTS))),
            )
        )
    return request


class TestShardingEquivalence:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(policy_specs, min_size=0, max_size=8),
        request_list=st.lists(sharding_requests(), min_size=1, max_size=6),
        combining=st.sampled_from(COMBINING),
        ops=mutations,
    )
    def test_sharded_pdp_matches_reference(
        self, n_shards, partitioner, specs, request_list, combining, ops
    ):
        sharded, reference, apply = make_sharded_pair(
            n_shards, combining, partitioner=partitioner
        )
        for i, spec in enumerate(specs):
            apply("load", build_policy(f"p{i}", spec))

        # Twice, so the second pass is served from the shard decision
        # caches (routed requests) and the scatter cache (spanning ones).
        for request in request_list + request_list:
            assert_equivalent(sharded, reference, request)

        # Interleaved mutations: equivalence must hold after *every*
        # store event, not just at the end — this is what pins the
        # shard-cache + scatter-cache invalidation and the
        # replica-migration interleavings.
        next_id = len(specs)
        for kind, index, spec in ops:
            loaded = [p.policy_id for p in reference.store.policies()]
            if kind == "load":
                apply("load", build_policy(f"p{next_id}", spec))
                next_id += 1
            elif not loaded:
                continue
            elif kind == "update":
                apply("update", build_policy(loaded[index % len(loaded)], spec))
            else:
                apply("remove", loaded[index % len(loaded)])
            for request in request_list + request_list:
                assert_equivalent(sharded, reference, request)

        # The counter invariant holds however the requests routed, and
        # the stats snapshot is pure (repeatable, not double-counting).
        stats = sharded.cache_stats()
        assert stats["evaluations"] == stats["routed"] + stats["scattered"]
        assert sharded.cache_stats() == stats


# -- deterministic pins over the sharding mechanics --------------------------------

def permit_policy(policy_id, resource=None, subject=None, regex_resource=None):
    """A single-PERMIT policy targeting *resource* (or a regex, or any)."""
    target = Target.for_ids(subject=subject, resource=resource)
    if regex_resource is not None:
        from repro.xacml.functions import STRING_REGEXP_MATCH
        from repro.xacml.policy import Match

        target.resources = [[
            Match(
                AttributeCategory.RESOURCE,
                RESOURCE_ID,
                AttributeValue.string(regex_resource),
                function_id=STRING_REGEXP_MATCH,
            )
        ]]
    return Policy(policy_id, target=target, rules=[Rule(f"{policy_id}:r", Effect.PERMIT)])


def distinct_shard_resources(n_shards, count):
    """Resource names hashing to *count* pairwise distinct shards."""
    chosen, seen = [], set()
    i = 0
    while len(chosen) < count:
        name = f"res{i}"
        shard = shard_of(name, n_shards)
        if shard not in seen:
            seen.add(shard)
            chosen.append(name)
        i += 1
    return chosen


class TestShardingMechanics:
    def test_literal_targets_placed_by_hash_and_wildcards_replicated(self):
        store = ShardedPolicyStore(4)
        store.load(permit_policy("lit", resource="weather0"))
        store.load(permit_policy("any"))                       # any-resource
        store.load(permit_policy("rex", regex_resource="we.*"))  # non-indexable
        assert store.placement_of("lit") == frozenset({shard_of("weather0", 4)})
        assert store.placement_of("any") == frozenset(range(4))
        assert store.placement_of("rex") == frozenset(range(4))
        assert store.replicated == 2
        stats = store.stats()
        assert stats["per_shard"][shard_of("weather0", 4)] == 3
        assert sorted(p.policy_id for p in store.policies()) == ["any", "lit", "rex"]

    def test_one_logical_event_per_mutation_despite_replication(self):
        store = ShardedPolicyStore(8)
        events = []
        store.add_listener(lambda event, policy: events.append((event, policy.policy_id)))
        store.load(permit_policy("w"))            # replicated to all 8 shards
        store.update(permit_policy("w", resource="res0"))  # shrinks to 1 shard
        store.remove("w")
        assert events == [("loaded", "w"), ("updated", "w"), ("removed", "w")]
        assert store.bus.published == 3

    def test_update_migration_preserves_first_applicable_order(self):
        # p0 loads before p1, both end up on the same shard — but p0 gets
        # there *last*, via update-migration through a different shard.
        # The pinned global sequence must keep p0 first-applicable.
        n_shards = 4
        res_a, res_b = distinct_shard_resources(n_shards, 2)
        sharded, reference, apply = make_sharded_pair(n_shards)
        apply("load", permit_policy("p0", resource=res_a))
        apply("load", permit_policy("p1", resource=res_a))
        apply("update", permit_policy("p0", resource=res_b))   # migrate away
        apply("update", permit_policy("p0", resource=res_a))   # migrate back
        request = Request.simple("alice", res_a)
        assert_equivalent(sharded, reference, request)
        assert sharded.evaluate(request).policy_id == "p0"

    def test_multi_resource_request_takes_scatter_path(self):
        n_shards = 4
        res_a, res_b = distinct_shard_resources(n_shards, 2)
        sharded, reference, apply = make_sharded_pair(n_shards)
        apply("load", permit_policy("pa", resource=res_a))
        apply("load", permit_policy("pb", resource=res_b))
        request = Request.simple("alice", res_a)
        request.add(
            Attribute(AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string(res_b))
        )
        assert len(sharded.store.shards_for_request(request)) == 2
        assert_equivalent(sharded, reference, request)
        assert sharded.scatter_evaluations == 1
        # Scatter candidates are de-duplicated and globally ordered.
        candidates = sharded.store.policies_for(request)
        assert [p.policy_id for p in candidates] == ["pa", "pb"]

    def test_no_resource_request_routes_to_shard_zero(self):
        sharded, reference, apply = make_sharded_pair(8)
        apply("load", permit_policy("lit", resource="res1"))
        apply("load", permit_policy("any"))
        request = Request()
        request.add(
            Attribute(
                AttributeCategory.SUBJECT,
                "urn:oasis:names:tc:xacml:1.0:subject:subject-id",
                AttributeValue.string("alice"),
            )
        )
        assert sharded.store.shards_for_request(request) == (0,)
        assert_equivalent(sharded, reference, request)
        assert sharded.evaluate(request).policy_id == "any"

    def test_cross_shard_cache_invalidation_on_update_and_remove(self):
        n_shards = 4
        res_a, res_b = distinct_shard_resources(n_shards, 2)
        sharded, reference, apply = make_sharded_pair(n_shards, cache_size=32)
        apply("load", permit_policy("pa", resource=res_a, subject="alice"))
        apply("load", permit_policy("pb", resource=res_b))
        request_a = Request.simple("alice", res_a)
        request_b = Request.simple("alice", res_b)
        for request in (request_a, request_b, request_a, request_b):
            assert_equivalent(sharded, reference, request)
        assert sharded.cache_stats()["hits"] == 2
        # Re-targeting pa to res_b must flip request_a to NotApplicable
        # (replica leaves res_a's shard) and request_b to pa (arrives on
        # res_b's shard *before* pb in global order) — both served
        # correctly straight after the mutation, not from stale cache.
        apply("update", permit_policy("pa", resource=res_b, subject="alice"))
        assert_equivalent(sharded, reference, request_a)
        assert_equivalent(sharded, reference, request_b)
        assert sharded.evaluate(request_b).policy_id == "pa"
        apply("remove", "pa")
        assert_equivalent(sharded, reference, request_b)
        assert sharded.evaluate(request_b).policy_id == "pb"

    def test_combining_change_flushes_shard_caches(self):
        sharded, reference, apply = make_sharded_pair(2, cache_size=32)
        apply("load", permit_policy("pp", resource="res0"))
        deny = Policy(
            "pd",
            target=Target.for_ids(resource="res0"),
            rules=[Rule("pd:r", Effect.DENY)],
        )
        apply("load", deny)
        request = Request.simple("alice", "res0")
        assert_equivalent(sharded, reference, request)  # first-applicable → permit
        sharded.combining = "deny-overrides"
        reference.combining = "deny-overrides"
        assert_equivalent(sharded, reference, request)
        assert sharded.evaluate(request).policy_id == "pd"

    def test_store_facade_rejects_duplicates_and_unknown(self):
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="res0"))
        with pytest.raises(PolicyStoreError):
            store.load(permit_policy("p", resource="res0"))
        with pytest.raises(PolicyStoreError):
            store.update(permit_policy("q", resource="res0"))
        with pytest.raises(PolicyStoreError):
            store.remove("q")
        assert "p" in store and len(store) == 1
        assert store.get("p").policy_id == "p"


# -- partitioning strategies -------------------------------------------------------

class TestPartitionStrategies:
    def test_subject_keys_spread_subject_policies(self):
        # The Table-3 shape: per-subject grants over wildcard resources.
        # Resource keys would replicate all of these to every shard;
        # subject keys spread them and keep requests routed.
        store = ShardedPolicyStore(4, partitioner="subject")
        for i in range(16):
            store.load(permit_policy(f"p{i}", subject=f"user{i}"))
        stats = store.stats()
        assert stats["partitioner"] == "subject"
        assert stats["replicated"] == 0
        assert sum(stats["per_shard"]) == 16  # one replica each, no copies
        sharded = ShardedPDP(store)
        response = sharded.evaluate(Request.simple("user3", "weather0"))
        assert response.policy_id == "p3"
        assert sharded.routed_evaluations == 1
        assert sharded.scatter_evaluations == 0

    def test_subject_partitioner_replicates_resource_only_targets(self):
        store = ShardedPolicyStore(4, partitioner="subject")
        store.load(permit_policy("r-only", resource="weather0"))
        assert store.placement_of("r-only") == frozenset(range(4))
        assert store.replicated == 1

    def test_composite_picks_dimension_per_policy(self):
        store = ShardedPolicyStore(4, partitioner="composite")
        store.load(permit_policy("by-res", resource="weather0", subject="alice"))
        store.load(permit_policy("by-subj", subject="bob"))
        store.load(permit_policy("wild"))
        assert store.placement_of("by-res") == frozenset(
            {shard_of("weather0", 4)}
        )
        assert store.placement_of("by-subj") == frozenset({shard_of("bob", 4)})
        assert store.placement_of("wild") == frozenset(range(4))
        assert store.partitioner.stats() == {"resource": 1, "subject": 1}

    def test_composite_routing_narrows_with_the_population(self):
        # With only subject-placed policies live, requests route on the
        # subject value alone — single shard, no scatter — and start
        # consulting resource shards only once a resource-keyed policy
        # exists.
        store = ShardedPolicyStore(4, partitioner="composite")
        store.load(permit_policy("s", subject="alice"))
        request = Request.simple("alice", "weather0")
        assert store.shards_for_request(request) == (shard_of("alice", 4),)
        store.load(permit_policy("r", resource="weather0"))
        expected = tuple(
            sorted({shard_of("alice", 4), shard_of("weather0", 4)})
        )
        assert store.shards_for_request(request) == expected
        store.remove("r")
        assert store.shards_for_request(request) == (shard_of("alice", 4),)

    def test_composite_update_can_flip_dimension(self):
        n_shards = 4
        sharded, reference, apply = make_sharded_pair(
            n_shards, partitioner="composite"
        )
        apply("load", permit_policy("p", resource="weather0"))
        apply("update", permit_policy("p", subject="alice"))  # res → subj
        assert sharded.store.placement_of("p") == frozenset(
            {shard_of("alice", n_shards)}
        )
        assert sharded.store.partitioner.stats() == {"resource": 0, "subject": 1}
        request = Request.simple("alice", "weather0")
        assert_equivalent(sharded, reference, request)
        assert sharded.evaluate(request).policy_id == "p"

    def test_unknown_partitioner_name_rejected(self):
        with pytest.raises(PolicyStoreError):
            ShardedPolicyStore(2, partitioner="no-such-strategy")

    def test_strategy_instances_accepted(self):
        store = ShardedPolicyStore(2, partitioner=SubjectKeyPartitioner())
        assert store.partitioner.name == "subject"
        store = ShardedPolicyStore(2, partitioner=CompositeKeyPartitioner())
        assert store.partitioner.name == "composite"


# -- worker-pool parity ------------------------------------------------------------

def pool_request_set():
    """Routed, scatter, multi-subject and attribute-less shapes."""
    requests = [
        Request.simple(subject, resource)
        for subject in ("alice", "bob", "eve")
        for resource in ("weather0", "weather1", "gps0", "other")
    ]
    spanning = Request.simple("alice", "weather0")
    spanning.add(
        Attribute(
            AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string("gps0")
        )
    )
    requests.append(spanning)
    two_subjects = Request.simple("carol", "weather1")
    two_subjects.add(
        Attribute(
            AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("dave")
        )
    )
    requests.append(two_subjects)
    no_resource = Request()
    no_resource.add(
        Attribute(
            AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("bob")
        )
    )
    requests.append(no_resource)
    return requests


def pool_policy_script():
    """A mutation script covering literal, subject-keyed, wildcard and
    regex targets plus migrating updates and removals."""
    from repro.xacml.functions import STRING_REGEXP_MATCH
    from repro.xacml.policy import Match

    regex = Policy(
        "rex",
        target=Target(
            resources=[[
                Match(
                    AttributeCategory.RESOURCE,
                    RESOURCE_ID,
                    AttributeValue.string("wea.*"),
                    function_id=STRING_REGEXP_MATCH,
                )
            ]]
        ),
        rules=[Rule("rex:r", Effect.DENY)],
    )
    loads = [
        permit_policy("p0", resource="weather0"),
        permit_policy("p1", resource="weather1", subject="alice"),
        permit_policy("p2", subject="bob"),
        permit_policy("p3"),
        regex,
        permit_policy("p4", resource="gps0"),
    ]
    mutations = [
        ("update", permit_policy("p0", resource="gps0")),       # migrate
        ("update", permit_policy("p2", subject="carol")),
        ("remove", "p3"),
        ("load", permit_policy("p5", subject="dave")),
        ("update", permit_policy("p1", subject="alice")),       # res → subj
        ("remove", "rex"),
    ]
    return loads, mutations


class _BoomRequest(Request):
    """Routes normally in the parent, blows up inside the worker (the
    worker-side PDP calls ``fingerprint`` first)."""

    @classmethod
    def make(cls, resource):
        request = cls()
        request.add(
            Attribute(
                AttributeCategory.RESOURCE,
                RESOURCE_ID,
                AttributeValue.string(resource),
            )
        )
        return request

    def fingerprint(self):
        raise RuntimeError("injected worker-side failure")


class TestWorkerPoolParity:
    """ProcessShardPool ≡ reference PDP ≡ in-process ShardedPDP, across
    partitioners and shard counts, re-checked after every mutation that
    fans out to the workers."""

    @pytest.mark.parametrize("partitioner", ("resource", "composite"))
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_pool_matches_reference_through_mutations(
        self, n_shards, partitioner, monkeypatch
    ):
        monkeypatch.setattr(ProcessShardPool, "BATCH_SIZE", 4)
        loads, script = pool_policy_script()
        store = ShardedPolicyStore(n_shards, partitioner=partitioner)
        reference_store = PolicyStore()
        reference = PolicyDecisionPoint.reference(reference_store)
        for policy in loads:
            store.load(policy)
            reference_store.load(policy)
        requests = pool_request_set()
        with ProcessShardPool(store) as pool:
            got = pool.evaluate_many(requests + requests)  # 2nd pass cached
            expected = [reference.evaluate(r) for r in requests + requests]
            for actual, want in zip(got, expected):
                assert actual.decision is want.decision
                assert actual.policy_id == want.policy_id
                assert actual.obligations == want.obligations
            for kind, payload in script:
                getattr(store, kind)(payload)
                getattr(reference_store, kind)(payload)
                got = pool.evaluate_many(requests)
                expected = [reference.evaluate(r) for r in requests]
                for actual, want in zip(got, expected):
                    assert actual.decision is want.decision
                    assert actual.policy_id == want.policy_id
            stats = pool.cache_stats()
            assert stats["evaluations"] == stats["routed"] + stats["scattered"]
            assert stats["hits"] > 0  # the worker caches really engaged

    def test_pool_matches_in_process_sharded_pdp(self):
        loads, script = pool_policy_script()
        pool_store = ShardedPolicyStore(4)
        inproc_store = ShardedPolicyStore(4)
        inproc = ShardedPDP(inproc_store)
        for policy in loads:
            pool_store.load(policy)
            inproc_store.load(policy)
        requests = pool_request_set()
        with ProcessShardPool(pool_store) as pool:
            for kind, payload in script:
                getattr(pool_store, kind)(payload)
                getattr(inproc_store, kind)(payload)
            got = pool.evaluate_many(requests)
            expected = [inproc.evaluate(r) for r in requests]
            for actual, want in zip(got, expected):
                assert actual.decision is want.decision
                assert actual.policy_id == want.policy_id
            # Same routing split: the pool routes with the same store.
            assert pool.routed_evaluations == inproc.routed_evaluations
            assert pool.scatter_evaluations == inproc.scatter_evaluations

    def test_pool_single_evaluate_and_close_semantics(self):
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="weather0"))
        pool = ProcessShardPool(store)
        response = pool.evaluate(Request.simple("alice", "weather0"))
        assert response.policy_id == "p"
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PolicyStoreError):
            pool.evaluate_many([Request.simple("alice", "weather0")])
        # A closed pool stops observing the store: mutations still work.
        store.load(permit_policy("q", resource="weather1"))
        assert "q" in store

    def test_worker_error_does_not_desync_the_protocol(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "BATCH_SIZE", 2)
        # A request that fails *inside* the worker (fingerprint raises
        # during the worker-side evaluate) surfaces as an error — and
        # the very next call still returns correct, correctly-matched
        # responses: batch tags are never reused and every expected
        # response is drained before the error propagates.
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="weather0"))
        good = [Request.simple(f"u{i}", "weather0") for i in range(6)]
        with ProcessShardPool(store) as pool:
            with pytest.raises(PolicyStoreError, match="failed on"):
                pool.evaluate_many(good[:3] + [_BoomRequest.make("weather0")])
            responses = pool.evaluate_many(good)
            assert [r.policy_id for r in responses] == ["p"] * 6

    def test_rejected_mutation_fanout_heals_the_worker_not_the_pool(self):
        # A worker that rejects its mirrored op has a diverged replica.
        # PR 6 poisoned the whole pool; supervision instead kills just
        # that worker and rebuilds it from authoritative parent state —
        # the pool object stays usable throughout, no reconstruction.
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="weather0"))
        request = Request.simple("alice", "weather0")
        with ProcessShardPool(store, restart_backoff=0.01) as pool:
            # Drive the shard listener with an op the worker must
            # reject (its mirrored store has no such policy).  The
            # fan-out must not raise: the store already applied its
            # side, and the worker repair is supervision's job.
            pool._on_shard_op(0, "remove", "no-such-policy", None)
            assert not pool._closed
            deadline = time.perf_counter() + 15.0
            while (
                pool.health()["worker_restarts"] < 1
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            assert pool.health()["worker_restarts"] >= 1
            # The same pool serves correct decisions again (fallback
            # covers any residual restart window), and the store stayed
            # consistent and fully usable.
            assert pool.evaluate(request).policy_id == "p"
            store.load(permit_policy("q", resource="weather1"))
            assert "q" in store and "p" in store
            assert pool.evaluate(request).policy_id == "p"

    def test_pool_cache_stats_pure_snapshot_across_close_cycles(self):
        # Re-registering a fresh pool over the same store must not
        # double-count anything: each snapshot aggregates only the live
        # workers' counters.
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="weather0"))
        request = Request.simple("alice", "weather0")
        with ProcessShardPool(store) as pool:
            pool.evaluate_many([request, request])
            first = pool.cache_stats()
            assert first["hits"] == 1 and first["misses"] == 1
            assert pool.cache_stats() == first
        with ProcessShardPool(store) as pool:
            pool.evaluate_many([request, request])
            stats = pool.cache_stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["evaluations"] == 2
