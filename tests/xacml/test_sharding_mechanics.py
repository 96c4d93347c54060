"""Sharding mechanics: placement, the invalidation bus, routing, the
partitioning strategies and the worker pool's lifecycle.

That every sharded evaluator *decides* as the oracle is the XACML
differential harness's job (``tests/properties/test_xacml_equivalence.py``);
these pin how the sharded store and the pool get there.
"""

import time

import pytest

from repro.errors import PolicyStoreError
from repro.xacml.attributes import (
    RESOURCE_ID, SUBJECT_ID, Attribute, AttributeCategory, AttributeValue,
)
from repro.xacml.functions import STRING_REGEXP_MATCH
from repro.xacml.policy import Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
from repro.xacml.sharding import (
    CompositeKeyPartitioner, ProcessShardPool, ShardedPDP, ShardedPolicyStore,
    SubjectKeyPartitioner, shard_of,
)


def resource_value(value):
    return Attribute(AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string(value))


def permit_policy(policy_id, resource=None, subject=None, regex_resource=None):
    """A single-PERMIT policy targeting *resource* (or a regex, or any)."""
    target = Target.for_ids(subject=subject, resource=resource)
    if regex_resource is not None:
        regex = AttributeValue.string(regex_resource)
        match = Match(AttributeCategory.RESOURCE, RESOURCE_ID, regex, STRING_REGEXP_MATCH)
        target.resources = [[match]]
    return Policy(policy_id, target=target, rules=[Rule(f"{policy_id}:r", Effect.PERMIT)])


def distinct_shard_resources(n_shards, count):
    """Resource names hashing to *count* pairwise distinct shards."""
    first_by_shard = {}
    for i in range(1000):
        first_by_shard.setdefault(shard_of(f"res{i}", n_shards), f"res{i}")
    return list(first_by_shard.values())[:count]


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

    def test_multi_resource_request_takes_scatter_path(self):
        n_shards = 4
        res_a, res_b = distinct_shard_resources(n_shards, 2)
        store = ShardedPolicyStore(n_shards)
        store.load(permit_policy("pa", resource=res_a))
        store.load(permit_policy("pb", resource=res_b))
        sharded = ShardedPDP(store)
        request = Request.simple("alice", res_a)
        request.add(resource_value(res_b))
        assert len(store.shards_for_request(request)) == 2
        assert sharded.evaluate(request).policy_id == "pa"
        assert sharded.scatter_evaluations == 1
        # Scatter candidates are de-duplicated and globally ordered.
        assert [p.policy_id for p in store.policies_for(request)] == ["pa", "pb"]
        # A batch routes each single-shard request and scatters each spanning one.
        spanning = Request.simple("bob", res_b)
        spanning.add(resource_value(res_a))
        batch = [Request.simple("alice", res_a), request, Request.simple("bob", res_b),
                 Request.simple("carol", "elsewhere"), spanning, request]
        responses = sharded.evaluate_many(batch)
        assert [r.policy_id for r in responses] == ["pa", "pa", "pb", None, "pa", "pa"]
        assert (sharded.routed_evaluations, sharded.scatter_evaluations) == (3, 1 + 3)

    def test_no_resource_request_routes_to_shard_zero(self):
        store = ShardedPolicyStore(8)
        store.load(permit_policy("lit", resource="res1"))
        store.load(permit_policy("any"))
        request = Request(
            [Attribute(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("alice"))]
        )
        assert store.shards_for_request(request) == (0,)
        assert ShardedPDP(store).evaluate(request).policy_id == "any"

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
        assert store.placement_of("by-res") == frozenset({shard_of("weather0", 4)})
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
        expected = tuple(sorted({shard_of("alice", 4), shard_of("weather0", 4)}))
        assert store.shards_for_request(request) == expected
        store.remove("r")
        assert store.shards_for_request(request) == (shard_of("alice", 4),)

    def test_composite_update_can_flip_dimension(self):
        store = ShardedPolicyStore(4, partitioner="composite")
        sharded = ShardedPDP(store)
        store.load(permit_policy("p", resource="weather0"))
        store.update(permit_policy("p", subject="alice"))  # res → subj
        assert store.placement_of("p") == frozenset({shard_of("alice", 4)})
        assert store.partitioner.stats() == {"resource": 0, "subject": 1}
        assert sharded.evaluate(Request.simple("alice", "weather0")).policy_id == "p"

    def test_unknown_partitioner_name_rejected(self):
        with pytest.raises(PolicyStoreError):
            ShardedPolicyStore(2, partitioner="no-such-strategy")

    def test_strategy_instances_accepted(self):
        store = ShardedPolicyStore(2, partitioner=SubjectKeyPartitioner())
        assert store.partitioner.name == "subject"
        store = ShardedPolicyStore(2, partitioner=CompositeKeyPartitioner())
        assert store.partitioner.name == "composite"


class _BoomRequest(Request):
    """Routes normally in the parent, blows up inside the worker (the
    worker-side PDP calls ``fingerprint`` first)."""

    @classmethod
    def make(cls, resource):
        return cls([resource_value(resource)])

    def fingerprint(self):
        raise RuntimeError("injected worker-side failure")


class TestWorkerPool:
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
        # Supervision kills just that worker and rebuilds it from
        # authoritative parent state — the pool object stays usable
        # throughout, no reconstruction.
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
