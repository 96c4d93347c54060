"""Sharding mechanics: placement, the invalidation bus, routing, the
balance of the paper's populations and the worker pool's lifecycle.

That every sharded evaluator *decides* as the oracle is the XACML
differential harness's job (``tests/properties/test_xacml_equivalence.py``);
these pin how the sharded store and the pool get there.
"""

import time

import pytest

from repro.errors import PolicyStoreError
from repro.workload.generator import TABLE3, WorkloadGenerator
from repro.workload.zipf import zipf_sequence
from repro.xacml.attributes import (
    RESOURCE_ID, SUBJECT_ID, Attribute, AttributeCategory, AttributeValue,
)
from repro.xacml.functions import STRING_REGEXP_MATCH
from repro.xacml.policy import Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
from repro.xacml.sharding import ProcessShardPool, ShardedPDP, ShardedPolicyStore, shard_of


def resource_value(value):
    return Attribute(AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string(value))


def subject_value(value):
    return Attribute(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string(value))


def permit_policy(policy_id, subject=None, resource=None, regex_subject=None):
    """A single-PERMIT policy targeting *subject* (or a regex, or any)."""
    target = Target.for_ids(subject=subject, resource=resource)
    if regex_subject is not None:
        regex = AttributeValue.string(regex_subject)
        match = Match(AttributeCategory.SUBJECT, SUBJECT_ID, regex, STRING_REGEXP_MATCH)
        target.subjects = [[match]]
    return Policy(policy_id, target=target, rules=[Rule(f"{policy_id}:r", Effect.PERMIT)])


def distinct_shard_subjects(n_shards, count):
    """Subject names hashing to *count* pairwise distinct shards."""
    first_by_shard = {}
    for i in range(1000):
        first_by_shard.setdefault(shard_of(f"user{i}", n_shards), f"user{i}")
    return list(first_by_shard.values())[:count]


class TestShardingMechanics:
    def test_literal_targets_placed_by_hash_and_wildcards_replicated(self):
        store = ShardedPolicyStore(4)
        store.load(permit_policy("lit", subject="alice"))
        store.load(permit_policy("any", resource="weather0"))  # any subject
        store.load(permit_policy("rex", regex_subject="ali.*"))  # non-indexable
        assert store.placement_of("lit") == frozenset({shard_of("alice", 4)})
        assert store.placement_of("any") == frozenset(range(4))
        assert store.placement_of("rex") == frozenset(range(4))
        assert store.replicated == 2
        stats = store.stats()
        assert stats["per_shard"][shard_of("alice", 4)] == 3
        assert sorted(p.policy_id for p in store.policies()) == ["any", "lit", "rex"]

    def test_multi_literal_target_lives_on_each_literal_shard(self):
        alice, bob = distinct_shard_subjects(4, 2)
        store = ShardedPolicyStore(4)
        policy = permit_policy("both")
        policy.target.subjects = [[Match(AttributeCategory.SUBJECT, SUBJECT_ID,
                                         AttributeValue.string(name))] for name in (alice, bob)]
        store.load(policy)
        assert store.placement_of("both") == frozenset({shard_of(alice, 4), shard_of(bob, 4)})
        assert store.replicated == 0

    def test_one_logical_event_per_mutation_despite_replication(self):
        store = ShardedPolicyStore(8)
        events = []
        store.add_listener(lambda event, policy: events.append((event, policy.policy_id)))
        store.load(permit_policy("w"))            # replicated to all 8 shards
        store.update(permit_policy("w", subject="user0"))  # shrinks to 1 shard
        store.remove("w")
        assert events == [("loaded", "w"), ("updated", "w"), ("removed", "w")]
        assert store.bus.published == 3

    def test_multi_subject_request_takes_scatter_path(self):
        n_shards = 4
        subject_a, subject_b = distinct_shard_subjects(n_shards, 2)
        store = ShardedPolicyStore(n_shards)
        store.load(permit_policy("pa", subject=subject_a))
        store.load(permit_policy("pb", subject=subject_b))
        sharded = ShardedPDP(store)
        request = Request.simple(subject_a, "weather0")
        request.add(subject_value(subject_b))
        assert len(store.shards_for_request(request)) == 2
        assert sharded.evaluate(request).policy_id == "pa"
        assert sharded.scatter_evaluations == 1
        # Scatter candidates are de-duplicated and globally ordered.
        assert [p.policy_id for p in store.policies_for(request)] == ["pa", "pb"]
        # A batch routes each single-shard request and scatters each spanning one.
        spanning = Request.simple(subject_b, "gps0")
        spanning.add(subject_value(subject_a))
        batch = [Request.simple(subject_a, "weather0"), request, Request.simple(subject_b, "gps0"),
                 Request.simple("nobody", "weather0"), spanning, request]
        responses = sharded.evaluate_many(batch)
        assert [r.policy_id for r in responses] == ["pa", "pa", "pb", None, "pa", "pa"]
        assert (sharded.routed_evaluations, sharded.scatter_evaluations) == (3, 1 + 3)

    def test_no_subject_request_routes_to_shard_zero(self):
        store = ShardedPolicyStore(8)
        store.load(permit_policy("lit", subject="user1"))
        store.load(permit_policy("any"))
        request = Request([resource_value("weather0")])
        assert store.shards_for_request(request) == (0,)
        assert ShardedPDP(store).evaluate(request).policy_id == "any"

    def test_store_facade_rejects_duplicates_and_unknown(self):
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", subject="alice"))
        with pytest.raises(PolicyStoreError):
            store.load(permit_policy("p", subject="alice"))
        with pytest.raises(PolicyStoreError):
            store.update(permit_policy("q", subject="alice"))
        with pytest.raises(PolicyStoreError):
            store.remove("q")
        assert "p" in store and len(store) == 1
        assert store.get("p").policy_id == "p"


def paper_populations():
    """The Table 3 population with its Zipf stream (α = 0.223 over the
    first 300 requests), and a 1,500-policy population over the same six
    streams with a Zipf stream over all 1,500 of its requests."""
    table3 = WorkloadGenerator(seed=2012).generate()
    city = WorkloadGenerator(seed=2012, parameters=TABLE3._replace(n_policies=1500)).generate()
    yield "table3", table3, zipf_sequence(
        [item.request for item in table3], length=len(table3),
        alpha=TABLE3.zipf_alpha, max_rank=TABLE3.zipf_max_rank, seed=2012,
    )
    yield "city1500", city, zipf_sequence(
        [item.request for item in city], length=len(city),
        alpha=TABLE3.zipf_alpha, max_rank=len(city), seed=2012,
    )


def test_placement_balances_the_paper_populations():
    """Per-(subject, stream) grants over six streams: every shard holds
    and evaluates at least a quarter, nothing replicates, nothing
    scatters — at the two shard counts a small deployment runs."""
    for name, items, stream in paper_populations():
        policies = list({item.policy.policy_id: item.policy for item in items}.values())
        assert len({item.stream for item in items}) == 6
        for n_shards in (2, 3):
            store = ShardedPolicyStore(n_shards)
            for policy in policies:
                store.load(policy)
            sharded = ShardedPDP(store)
            sharded.evaluate_many(stream)
            where = f"{name} at n = {n_shards}"
            stats = store.stats()
            assert min(stats["per_shard"]) >= 0.25 * len(policies), (where, stats)
            evaluated = [pdp.evaluations for pdp in sharded.shard_pdps]
            assert min(evaluated) >= 0.25 * len(stream), (where, evaluated)
            assert stats["replicated"] == 0, where
            assert sharded.scatter_evaluations == 0, where
            assert sharded.routed_evaluations == sum(evaluated) == len(stream), where


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

    def test_rejected_mutation_fanout_heals_the_worker_not_the_pool(self, monkeypatch):
        # A worker that rejects its mirrored op has a diverged replica.
        # Supervision kills just that worker and rebuilds it from
        # authoritative parent state — the pool object stays usable
        # throughout, no reconstruction.
        store = ShardedPolicyStore(2)
        store.load(permit_policy("p", resource="weather0"))
        request = Request.simple("alice", "weather0")
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.01)
        with ProcessShardPool(store) as pool:
            # Drive the shard listener with an op the worker must
            # reject (its mirrored store has no such policy).  The
            # fan-out must not raise: the store already applied its
            # side, and the worker repair is supervision's job.
            pool._on_shard_op(0, "remove", "no-such-policy", None)
            assert not pool._shutdown.is_set()
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
