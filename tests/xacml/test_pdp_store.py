"""Tests for the policy store, target index, decision cache and PDP."""

import pytest
from hypothesis import given, note, seed, settings, strategies as st

from repro.errors import PolicyStoreError
from repro.xacml.attributes import (
    ACTION_ID,
    RESOURCE_ID,
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)
from repro.xacml.functions import STRING_REGEXP_MATCH
from repro.xacml.index import PolicyIndex, target_keys
from repro.xacml.pdp import DecisionCache, PolicyDecisionPoint
from repro.xacml.policy import Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Decision, Effect, Obligation
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import parse_request_xml, request_to_xml
from tests.conftest import NoWalk, live_keys
from tests.properties.test_xacml_equivalence import LONG, SEED, build_policy, policy_specs, requests


def make_policy(policy_id, subject=None, resource=None, effect=Effect.PERMIT,
                obligations=()):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject, resource=resource),
        rules=[Rule(f"{policy_id}:rule", effect)],
        obligations=obligations,
    )


def subject_value(value):
    return Attribute(AttributeCategory.SUBJECT, SUBJECT_ID, value)


def targeted(policy_id, subjects=(), resources=(), effect=Effect.PERMIT):
    """A policy with one single-match alternative per given value."""

    def alternatives(category, attribute_id, values):
        return [[Match(category, attribute_id, AttributeValue.string(v))] for v in values]

    target = Target(
        subjects=alternatives(AttributeCategory.SUBJECT, SUBJECT_ID, subjects),
        resources=alternatives(AttributeCategory.RESOURCE, RESOURCE_ID, resources),
    )
    return Policy(policy_id, target=target, rules=[Rule(f"{policy_id}:rule", effect)])


def assert_literal_index_exact(cache):
    """The literal index holds exactly one link per (entry, literal the
    entry's key carries) and no empty set."""
    expected = {}
    for key in cache.entries:
        for category, attribute_id, _, _, text in key:
            if attribute_id in (SUBJECT_ID, RESOURCE_ID, ACTION_ID):
                expected.setdefault((category, text), set()).add(key)
    assert cache.literals == expected
    assert all(cache.literals.values())


def warm_cache(pdp, subjects, resources):
    """Evaluate every subject x resource pair once; return the requests."""
    grid = {
        (subject, resource): Request.simple(subject, resource)
        for subject in subjects for resource in resources
    }
    for request in grid.values():
        pdp.evaluate(request)
    return grid


def evicted_pairs(pdp, grid):
    return {pair for pair, request in grid.items()
            if request.fingerprint() not in pdp.cache.entries}


class TestPolicyStore:
    def test_load_get_remove(self):
        store = PolicyStore()
        store.load(make_policy("p1"))
        assert "p1" in store
        assert store.get("p1").policy_id == "p1"
        removed = store.remove("p1")
        assert removed.policy_id == "p1"
        assert "p1" not in store

    def test_duplicate_load_rejected(self):
        store = PolicyStore()
        store.load(make_policy("p1"))
        with pytest.raises(PolicyStoreError):
            store.load(make_policy("p1"))

    def test_update_requires_existing(self):
        store = PolicyStore()
        with pytest.raises(PolicyStoreError):
            store.update(make_policy("p1"))

    def test_remove_requires_existing(self):
        with pytest.raises(PolicyStoreError):
            PolicyStore().remove("p1")

    def test_listeners_see_events(self):
        store = PolicyStore()
        events = []
        store.add_listener(lambda event, policy: events.append((event, policy.policy_id)))
        store.load(make_policy("p1"))
        store.update(make_policy("p1"))
        store.remove("p1")
        assert events == [("loaded", "p1"), ("updated", "p1"), ("removed", "p1")]

    def test_load_order_preserved(self):
        store = PolicyStore()
        for i in range(5):
            store.load(make_policy(f"p{i}"))
        assert [p.policy_id for p in store.policies()] == [f"p{i}" for i in range(5)]

    def test_remove_listener(self):
        store = PolicyStore()
        events = []
        listener = lambda event, policy: events.append(event)
        store.add_listener(listener)
        store.remove_listener(listener)
        store.remove_listener(listener)  # unknown listener is ignored
        store.load(make_policy("p1"))
        assert events == []


class TestPdp:
    def test_permit_with_obligations(self):
        store = PolicyStore()
        obligation = Obligation("ob1", Effect.PERMIT)
        store.load(make_policy("p1", subject="LTA", obligations=[obligation]))
        pdp = PolicyDecisionPoint(store)
        response = pdp.evaluate(Request.simple("LTA", "anything"))
        assert response.decision is Decision.PERMIT
        assert response.permitted
        assert response.policy_id == "p1"
        assert response.obligations == (obligation,)

    def test_not_applicable(self):
        pdp = PolicyDecisionPoint(PolicyStore())
        response = pdp.evaluate(Request.simple("u", "r"))
        assert response.decision is Decision.NOT_APPLICABLE
        assert response.policy_id is None
        assert not response.permitted

    def test_deny(self):
        store = PolicyStore()
        store.load(make_policy("p1", effect=Effect.DENY))
        response = PolicyDecisionPoint(store).evaluate(Request.simple("u", "r"))
        assert response.decision is Decision.DENY

    def test_first_applicable_across_policies(self):
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-gps", resource="gps"))
        pdp = PolicyDecisionPoint(store)
        assert pdp.evaluate(Request.simple("u", "gps")).policy_id == "p-gps"

    def test_evaluation_counter(self):
        pdp = PolicyDecisionPoint(PolicyStore())
        pdp.evaluate(Request.simple("u", "r"))
        pdp.evaluate(Request.simple("u", "r"))
        assert pdp.evaluations == 2


class TestPolicyIndex:
    def test_candidates_pruned_by_target(self):
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-gps", resource="gps"))
        store.load(make_policy("p-any"))  # wildcard target
        candidates = store.policies_for(Request.simple("u", "gps"))
        assert [p.policy_id for p in candidates] == ["p-gps", "p-any"]

    def test_candidates_preserve_load_order(self):
        store = PolicyStore()
        store.load(make_policy("p-any"))
        store.load(make_policy("p-gps", resource="gps"))
        candidates = store.policies_for(Request.simple("u", "gps"))
        assert [p.policy_id for p in candidates] == ["p-any", "p-gps"]

    def test_subject_pruning(self):
        store = PolicyStore()
        store.load(make_policy("p-alice", subject="alice"))
        store.load(make_policy("p-bob", subject="bob"))
        candidates = store.policies_for(Request.simple("alice", "r"))
        assert [p.policy_id for p in candidates] == ["p-alice"]

    def test_multi_valued_subject_unions_buckets(self):
        store = PolicyStore()
        store.load(make_policy("p-alice", subject="alice"))
        store.load(make_policy("p-bob", subject="bob"))
        request = Request.simple("alice", "r")
        request.add(
            Attribute(
                AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("bob")
            )
        )
        assert {p.policy_id for p in store.policies_for(request)} == {
            "p-alice",
            "p-bob",
        }

    def test_regex_target_falls_back_to_wildcard(self):
        store = PolicyStore()
        regex_target = Target(
            subjects=[[
                Match(
                    AttributeCategory.SUBJECT,
                    SUBJECT_ID,
                    AttributeValue.string("ali.*"),
                    function_id=STRING_REGEXP_MATCH,
                )
            ]]
        )
        store.load(
            Policy("p-re", target=regex_target, rules=[Rule("r", Effect.PERMIT)])
        )
        # Non-indexable target: the policy must be a candidate for any
        # subject, and the full evaluation decides.
        assert [p.policy_id for p in store.policies_for(Request.simple("alice", "r"))] == ["p-re"]
        assert [p.policy_id for p in store.policies_for(Request.simple("zoe", "r"))] == ["p-re"]

    def test_update_and_remove_maintain_index(self):
        store = PolicyStore()
        store.load(make_policy("p1", resource="weather"))
        store.update(make_policy("p1", resource="gps"))
        assert store.policies_for(Request.simple("u", "weather")) == []
        assert [p.policy_id for p in store.policies_for(Request.simple("u", "gps"))] == ["p1"]
        store.remove("p1")
        assert store.policies_for(Request.simple("u", "gps")) == []
        assert store.index.stats()["policies"] == 0

    def test_request_without_resource_only_sees_wildcards(self):
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-any"))
        request = Request()
        request.add(
            Attribute(
                AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("u")
            )
        )
        assert [p.policy_id for p in store.policies_for(request)] == ["p-any"]


class TestDecisionCache:
    def test_hit_and_miss_counters(self):
        store = PolicyStore()
        store.load(make_policy("p1", subject="LTA"))
        pdp = PolicyDecisionPoint(store)
        first = pdp.evaluate(Request.simple("LTA", "weather"))
        second = pdp.evaluate(Request.simple("LTA", "weather"))
        assert first.decision is second.decision is Decision.PERMIT
        assert (pdp.cache.hits, pdp.cache.misses) == (1, 1)
        assert pdp.cache_stats()["hit_rate"] == 0.5
        assert pdp.cache_stats()["entries"] == 1

    def test_load_invalidates_cached_not_applicable(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).decision is Decision.NOT_APPLICABLE
        store.load(make_policy("p1", subject="LTA"))
        assert pdp.evaluate(request).decision is Decision.PERMIT

    def test_update_invalidates_cached_permit(self):
        store = PolicyStore()
        store.load(make_policy("p1", subject="LTA"))
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).decision is Decision.PERMIT
        store.update(make_policy("p1", subject="LTA", effect=Effect.DENY))
        assert pdp.evaluate(request).decision is Decision.DENY
        assert pdp.cache.invalidations == 1  # the update (load preceded the PDP)

    def test_remove_invalidates_cached_permit(self):
        store = PolicyStore()
        store.load(make_policy("p1", subject="LTA"))
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).decision is Decision.PERMIT
        store.remove("p1")
        assert pdp.evaluate(request).decision is Decision.NOT_APPLICABLE

    def test_lru_eviction(self):
        store = PolicyStore()
        store.load(make_policy("p-any"))
        pdp = PolicyDecisionPoint(store, cache_size=2)
        a, b, c = (Request.simple(s, "r") for s in ("a", "b", "c"))
        pdp.evaluate(a)
        pdp.evaluate(b)
        pdp.evaluate(a)   # refresh a; b is now least recent
        pdp.evaluate(c)   # evicts b
        hits_before = pdp.cache.hits
        pdp.evaluate(b)   # must be a miss again
        assert pdp.cache.hits == hits_before
        assert pdp.cache_stats()["entries"] == 2

    def test_reference_mode_disables_fast_paths(self):
        store = PolicyStore()
        store.load(make_policy("p1", subject="LTA"))
        pdp = PolicyDecisionPoint.reference(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).decision is Decision.PERMIT
        assert pdp.evaluate(request).decision is Decision.PERMIT
        assert (pdp.cache.hits, pdp.cache.misses) == (0, 0)
        # Candidate selection is the whole store, not the index's pick.
        store.load(make_policy("p2", subject="NEA"))
        assert len(pdp._candidates(request)) == 2
        assert len(PolicyDecisionPoint(store)._candidates(request)) == 1

    def test_detach_stops_invalidation_and_unpins(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        pdp.detach()
        store.load(make_policy("p1"))
        assert pdp.cache.invalidations == 0

    def test_cacheless_pdp_registers_no_listener(self):
        store = PolicyStore()
        before = len(store._listeners)
        PolicyDecisionPoint.reference(store)
        assert len(store._listeners) == before

    def test_unrelated_remove_keeps_entries_warm(self):
        """Per-policy invalidation: removing policy P evicts only the
        entries whose candidate set contained P."""
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-gps", resource="gps"))
        pdp = PolicyDecisionPoint(store)
        weather = Request.simple("u", "weather")
        gps = Request.simple("u", "gps")
        assert pdp.evaluate(weather).policy_id == "p-weather"
        assert pdp.evaluate(gps).policy_id == "p-gps"
        store.remove("p-gps")
        # The weather entry never considered p-gps: served from cache.
        hits_before = pdp.cache.hits
        assert pdp.evaluate(weather).policy_id == "p-weather"
        assert pdp.cache.hits == hits_before + 1
        # The gps entry was in p-gps's bucket: evicted, re-evaluated.
        assert pdp.evaluate(gps).decision is Decision.NOT_APPLICABLE
        assert pdp.cache_stats()["targeted_evictions"] == 1
        assert pdp.cache_stats()["full_flushes"] == 0

    def test_unrelated_update_keeps_entries_warm(self):
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-gps", resource="gps"))
        pdp = PolicyDecisionPoint(store)
        weather = Request.simple("u", "weather")
        assert pdp.evaluate(weather).decision is Decision.PERMIT
        store.update(make_policy("p-gps", resource="gps", effect=Effect.DENY))
        hits_before = pdp.cache.hits
        assert pdp.evaluate(weather).decision is Decision.PERMIT
        assert pdp.cache.hits == hits_before + 1

    def test_update_retargeting_policy_evicts_newly_matching(self):
        """An update can make a policy newly applicable to a request
        whose cached decision never considered it — the probe must
        evict that entry."""
        store = PolicyStore()
        store.load(make_policy("p-weather", resource="weather"))
        store.load(make_policy("p-gps", resource="gps", effect=Effect.DENY))
        pdp = PolicyDecisionPoint(store)
        weather = Request.simple("u", "weather")
        assert pdp.evaluate(weather).decision is Decision.PERMIT
        # Retarget p-gps onto weather with first-applicable priority
        # (loaded... still after p-weather, so PERMIT stands) — then
        # retarget p-weather away so p-gps decides.
        store.update(make_policy("p-gps", resource="weather", effect=Effect.DENY))
        store.update(make_policy("p-weather", resource="gps"))
        assert pdp.evaluate(weather).decision is Decision.DENY

    def test_load_evicts_what_its_target_reaches_and_flushes_only_when_unconstrained(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        weather, gps = Request.simple("u", "weather"), Request.simple("u", "gps")
        for request in (weather, gps):
            assert pdp.evaluate(request).decision is Decision.NOT_APPLICABLE
        store.load(make_policy("p-weather", resource="weather"))
        # The matching entry went, the unrelated one stayed warm.
        assert pdp.cache_stats()["entries"] == 1
        hits_before = pdp.cache.hits
        assert pdp.evaluate(gps).decision is Decision.NOT_APPLICABLE
        assert pdp.cache.hits == hits_before + 1
        assert pdp.evaluate(weather).decision is Decision.PERMIT
        assert pdp.cache_stats()["targeted_evictions"] == 1
        assert pdp.cache_stats()["full_flushes"] == 0
        # Only a target that constrains no indexed category flushes.
        store.load(make_policy("p-any", effect=Effect.DENY))
        assert pdp.cache_stats()["entries"] == 0
        assert pdp.cache_stats()["full_flushes"] == 1
        assert pdp.evaluate(gps).decision is Decision.DENY

    def test_lru_eviction_cleans_buckets(self):
        store = PolicyStore()
        store.load(make_policy("p-any"))
        pdp = PolicyDecisionPoint(store, cache_size=2)
        for subject in ("a", "b", "c", "d"):
            pdp.evaluate(Request.simple(subject, "r"))
        assert pdp.cache_stats()["entries"] == 2
        # Every surviving bucket key must still be a live cache entry.
        for bucket in pdp.cache.buckets.values():
            assert all(key in pdp.cache.entries for key in bucket)
        assert sum(len(b) for b in pdp.cache.buckets.values()) == 2
        assert_literal_index_exact(pdp.cache)

    def test_cached_response_keeps_obligations(self):
        store = PolicyStore()
        obligation = Obligation("ob1", Effect.PERMIT)
        store.load(make_policy("p1", subject="LTA", obligations=[obligation]))
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).obligations == (obligation,)
        assert pdp.evaluate(request).obligations == (obligation,)
        assert pdp.cache.hits == 1


class TestTargetedLoadInvalidation:
    """The one eviction rule, case by case: a ``loaded`` (or the new
    version of an ``updated``) policy evicts exactly the entries holding
    one of its literals in every category its target constrains."""

    SUBJECTS = ("alice", "bob", "carol")
    RESOURCES = ("weather", "gps")

    def warm(self, cache_size=64):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store, cache_size=cache_size)
        return store, pdp, warm_cache(pdp, self.SUBJECTS, self.RESOURCES)

    def test_load_for_a_never_requested_subject_keeps_every_entry_warm(self):
        store, pdp, grid = self.warm()
        store.load(make_policy("p-stranger", subject="mallory", resource="weather"))
        assert evicted_pairs(pdp, grid) == set()
        hits_before = pdp.cache.hits
        pdp.evaluate(grid["alice", "weather"])
        stats = pdp.cache_stats()
        assert stats["hits"] == hits_before + 1
        assert (stats["full_flushes"], stats["targeted_evictions"]) == (0, 0)
        assert stats["invalidations"] == 1

    def test_load_turning_not_applicable_into_permit_evicts_exactly_that_entry(self):
        store, pdp, grid = self.warm()
        store.load(make_policy("p-bob-gps", subject="bob", resource="gps"))
        assert evicted_pairs(pdp, grid) == {("bob", "gps")}
        assert pdp.evaluate(grid["bob", "gps"]).decision is Decision.PERMIT
        assert pdp.cache_stats()["targeted_evictions"] == 1

    def test_subject_any_with_a_resource_evicts_only_that_resource(self):
        store, pdp, grid = self.warm()
        store.load(make_policy("p-gps", resource="gps"))
        assert evicted_pairs(pdp, grid) == {(s, "gps") for s in self.SUBJECTS}
        assert pdp.cache_stats()["full_flushes"] == 0

    @pytest.mark.parametrize("match", [
        Match(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string("ali.*"),
              function_id=STRING_REGEXP_MATCH),
        Match(AttributeCategory.SUBJECT, "urn:example:role", AttributeValue.string("admin")),
    ], ids=["regex", "non-standard-attribute"])
    def test_unindexable_subject_match_falls_to_the_other_categories(self, match):
        store, pdp, grid = self.warm()
        target = Target.for_ids(resource="weather")
        target.subjects = [[match]]
        store.load(Policy("p-odd", target=target, rules=[Rule("r", Effect.PERMIT)]))
        assert evicted_pairs(pdp, grid) == {(s, "weather") for s in self.SUBJECTS}
        assert pdp.cache_stats()["full_flushes"] == 0

    def test_all_any_target_flushes(self):
        store, pdp, grid = self.warm()
        store.load(make_policy("p-any"))
        stats = pdp.cache_stats()
        assert (stats["entries"], stats["full_flushes"]) == (0, 1)
        assert stats["targeted_evictions"] == 0
        assert_literal_index_exact(pdp.cache)

    def test_two_alternative_target_reaches_both_literals(self):
        store, pdp, grid = self.warm()
        store.load(targeted("p-two", subjects=("alice", "carol"), resources=("gps",)))
        assert evicted_pairs(pdp, grid) == {("alice", "gps"), ("carol", "gps")}
        for subject in ("alice", "carol"):
            assert pdp.evaluate(grid[subject, "gps"]).decision is Decision.PERMIT

    def test_request_with_two_subject_values_is_reachable_through_either(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        both = Request.simple("alice", "weather")
        both.add(subject_value(AttributeValue.string("bob")))
        assert pdp.evaluate(both).decision is Decision.NOT_APPLICABLE
        for subject in ("bob", "alice"):
            assert both.fingerprint() in pdp.cache.entries
            store.load(make_policy(f"p-{subject}", subject=subject, effect=Effect.DENY))
            assert both.fingerprint() not in pdp.cache.entries
            assert pdp.evaluate(both).policy_id == "p-bob"  # first-applicable
        assert pdp.cache_stats()["targeted_evictions"] == 2

    def test_non_string_literal_agrees_with_the_policy_index(self):
        seven = Request()
        seven.add(subject_value(AttributeValue.integer(7)))
        policy = make_policy("p-seven", subject="7")
        index = PolicyIndex()
        index.add(policy)
        cache = DecisionCache(8)
        cache.put(seven.fingerprint(), object(), frozenset())
        assert index.candidate_ids(seven) == {"p-seven"}
        assert cache.reach(policy) == {seven.fingerprint()}
        other = make_policy("p-eight", subject="8")
        assert cache.reach(other) == set()

    def test_related_update_evicts_the_bucket_and_the_new_reach(self):
        store, pdp, grid = self.warm()
        store.load(make_policy("p-move", subject="alice", resource="gps"))
        pdp.evaluate(grid["alice", "gps"])
        evictions = pdp.cache.targeted_evictions
        store.update(make_policy("p-move", subject="bob", resource="weather"))
        assert evicted_pairs(pdp, grid) == {("alice", "gps"), ("bob", "weather")}
        assert pdp.cache.targeted_evictions == evictions + 2
        assert pdp.evaluate(grid["alice", "gps"]).decision is Decision.NOT_APPLICABLE
        assert pdp.evaluate(grid["bob", "weather"]).decision is Decision.PERMIT

    def test_load_onto_an_empty_cache_counts_nothing(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        store.load(make_policy("p-any"))
        store.load(make_policy("p-gps", resource="gps"))
        stats = pdp.cache_stats()
        assert (stats["invalidations"], stats["full_flushes"]) == (2, 0)

    def test_unknown_event_flushes(self):
        store, pdp, grid = self.warm()
        pdp.cache.on_store_event("renamed", make_policy("p-x", subject="mallory"))
        assert pdp.cache_stats()["entries"] == 0
        assert pdp.cache_stats()["full_flushes"] == 1


class TestCacheLinks:
    """Every way an entry leaves the cache unlinks it everywhere."""

    def warm(self, cache_size):
        store = PolicyStore()
        store.load(make_policy("p-gps", resource="gps"))
        pdp = PolicyDecisionPoint(store, cache_size=cache_size)
        grid = warm_cache(pdp, ("alice", "bob", "carol"), ("weather", "gps"))
        return store, pdp, grid

    def test_lru_trimming_keeps_the_literal_index_exact(self):
        _, pdp, _ = self.warm(cache_size=4)
        assert len(pdp.cache) == 4
        assert_literal_index_exact(pdp.cache)

    def test_evict_bucket_flush_and_clear_keep_the_literal_index_exact(self):
        _, pdp, _ = self.warm(cache_size=64)
        assert_literal_index_exact(pdp.cache)
        pdp.cache.evict_bucket("p-gps")
        assert len(pdp.cache) == 3
        assert_literal_index_exact(pdp.cache)
        flushes = pdp.cache.full_flushes
        pdp.flush_cache()
        assert (len(pdp.cache), pdp.cache.full_flushes) == (0, flushes + 1)
        assert pdp.cache.literals == {} and pdp.cache.buckets == {}

    def test_clear_drops_everything_and_counts_nothing(self):
        _, pdp, _ = self.warm(cache_size=64)
        before = {k: v for k, v in pdp.cache_stats().items() if k != "entries"}
        pdp.cache.clear()
        assert len(pdp.cache) == 0
        assert pdp.cache.literals == {} and pdp.cache.buckets == {}
        assert {k: v for k, v in pdp.cache_stats().items() if k != "entries"} == before

    def test_detach_leaves_no_link_behind(self):
        _, pdp, _ = self.warm(cache_size=64)
        pdp.detach()
        assert len(pdp.cache) == 0
        assert pdp.cache.literals == {} and pdp.cache.buckets == {}

    def test_put_over_a_cached_key_unlinks_the_old_entry_first(self):
        cache = DecisionCache(8)
        key = Request.simple("alice", "gps").fingerprint()
        cache.put(key, "first", frozenset({"p-old"}))
        cache.put(key, "second", frozenset({"p-new"}))
        assert cache.get(key) == "second"
        assert cache.buckets == {"p-new": {key}}
        assert_literal_index_exact(cache)
        cache.evict_bucket("p-old")  # must not touch the live entry
        assert len(cache) == 1

    def test_zero_capacity_stores_nothing(self):
        cache = DecisionCache(0)
        cache.put(Request.simple("alice", "gps").fingerprint(), "r", frozenset({"p"}))
        assert len(cache) == 0
        assert cache.buckets == {} and cache.literals == {}
        pdp = PolicyDecisionPoint(PolicyStore(), cache_size=0)
        pdp.evaluate(Request.simple("alice", "gps"))
        assert pdp.cache_stats()["entries"] == 0


class TestNoEventWalksTheCache:
    """An event's cost may not depend on unrelated cached entries:
    clock-free — iterating ``entries`` raises."""

    def test_unrelated_events_iterate_nothing_and_a_related_update_is_exact(self):
        store = PolicyStore()
        store.load(make_policy("p-victim", subject="mallory", resource="nowhere"))
        pdp = PolicyDecisionPoint(store)
        resources = [f"res{i}" for i in range(6)]
        grid = warm_cache(pdp, [f"user{i}" for i in range(200)], resources)
        assert len(pdp.cache) == 1200
        pdp.cache.entries = NoWalk(pdp.cache.entries)
        before = live_keys(pdp.cache)

        store.load(make_policy("p-new", subject="trent", resource="res0"))
        store.update(make_policy("p-victim", subject="mallory", resource="elsewhere"))
        store.remove("p-new")
        assert live_keys(pdp.cache) == before
        assert pdp.cache_stats()["targeted_evictions"] == 0
        assert pdp.cache_stats()["full_flushes"] == 0

        store.update(make_policy("p-victim", resource="res3"))
        reachable = {r.fingerprint() for (_, res), r in grid.items() if res == "res3"}
        assert before - live_keys(pdp.cache) == reachable
        assert pdp.cache_stats()["targeted_evictions"] == len(reachable) == 200


class NoIter:
    """An index bucket that answers ``len`` and ``in`` but refuses to be
    walked.  Not a ``set``: ``set().union``, ``|=`` and ``set(x)`` read a
    set's table directly and never call ``__iter__``."""

    def __init__(self, members):
        self._members = frozenset(members)

    def __len__(self):
        return len(self._members)

    def __contains__(self, item):
        return item in self._members

    def __iter__(self):
        raise AssertionError("a candidate lookup walked a shared bucket")


def lookup(subjects=()):
    """A ``read`` of ``res1`` by each of *subjects* (none: subject-less)."""
    request = Request()
    for subject in subjects:
        request.add(subject_value(AttributeValue.string(subject)))
    request.add(Attribute(AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string("res1")))
    request.add(Attribute(AttributeCategory.ACTION, ACTION_ID, AttributeValue.string("read")))
    return request


class TestColdLookup:
    """A cache miss's candidate lookup may not depend on the size of a
    bucket nearly every policy is in: clock-free — walking the action
    bucket or a resource bucket raises."""

    RESOURCES = [f"res{i}" for i in range(6)]

    def loaded(self):
        """1,000 subject-keyed policies and six subject-less ones, all on
        ``read``, one resource each; the shared buckets refuse walks."""
        store = PolicyStore()
        for i in range(1000):
            store.load(Policy(
                f"p{i}",
                target=Target.for_ids(f"user{i}", self.RESOURCES[i % 6], "read"),
                rules=[Rule(f"p{i}:rule", Effect.PERMIT)],
            ))
        for resource in self.RESOURCES:
            store.load(Policy(
                f"any-{resource}",
                target=Target.for_ids(resource=resource, action="read"),
                rules=[Rule(f"any-{resource}:rule", Effect.PERMIT)],
            ))
        buckets = store.index._buckets
        for category in (AttributeCategory.ACTION, AttributeCategory.RESOURCE):
            for key, bucket in buckets[category].items():
                buckets[category][key] = NoIter(bucket)
        return store

    def requests(self):
        return {
            "single": lookup(["user7"]),
            "two-subject": lookup(["user7", "user13"]),
            "subject-less": lookup(),
        }

    def test_lookup_is_exact_without_walking_a_shared_bucket(self):
        store = self.loaded()
        policies = store.policies()
        expected = {
            "single": {"p7", "any-res1"},
            "two-subject": {"p7", "p13", "any-res1"},
            "subject-less": {"any-res1"},
        }
        for name, request in self.requests().items():
            matching = {p.policy_id for p in policies if p.target.matches(request)}
            assert matching == expected[name]
            assert store.index.candidate_ids(request) == expected[name], name
            ordered = [p.policy_id for p in store.policies_for(request)]
            assert ordered == [p.policy_id for p in policies if p.policy_id in expected[name]]

    def test_a_returned_set_is_the_callers_own(self):
        """Mutating an answer changes no later answer — also when the
        smallest category's union is its wildcards alone."""
        store = self.loaded()
        for name, request in self.requests().items():
            answer = store.index.candidate_ids(request)
            expected = set(answer)
            answer.clear()
            answer.add("p-intruder")
            assert store.index.candidate_ids(request) == expected, name
        store.index.candidate_ids(lookup()).add("p-intruder")
        assert store.index._wildcards[AttributeCategory.SUBJECT] == {
            f"any-{resource}" for resource in self.RESOURCES
        }


class TestProperties:
    @seed(SEED)
    @settings(max_examples=480 if LONG else 60, deadline=None, database=None)
    @given(spec=policy_specs, request_list=st.lists(requests(), min_size=1, max_size=8))
    def test_request_index_is_the_dual_of_the_policy_index(self, spec, request_list):
        """``key ∈ reach(policy)`` ⇔ ``policy ∈ candidate_ids(request)``
        on a single-policy index: the two inverted indexes agree
        exactly (reach is None for the all-wildcard target, which is a
        candidate for every request)."""
        note(f"FUZZ_SEED={SEED}")
        policy = build_policy("p", spec)
        index = PolicyIndex()
        index.add(policy)
        cache = DecisionCache(64)
        for request in request_list:
            cache.put(request.fingerprint(), None, frozenset())
        reached = cache.reach(policy)
        candidates_of = {
            request.fingerprint() for request in request_list
            if index.candidate_ids(request)
        }
        if reached is None:
            assert all(keys is None for keys in target_keys(policy.target).values())
            reached = set(cache.entries)
        assert reached == candidates_of

    @seed(SEED)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        specs=st.lists(policy_specs, min_size=0, max_size=6),
        request_list=st.lists(requests(), min_size=1, max_size=6),
    )
    def test_memoised_request_parse_matches_a_fresh_parse(self, specs, request_list):
        note(f"FUZZ_SEED={SEED}")
        store = PolicyStore()
        for i, spec in enumerate(specs):
            store.load(build_policy(f"p{i}", spec))
        fast = PolicyDecisionPoint(store, cache_size=8)
        reference = PolicyDecisionPoint.reference(store)
        for request in request_list + request_list:
            xml = request_to_xml(request)
            fresh = parse_request_xml.__wrapped__(xml)
            memoised = parse_request_xml(xml)
            assert parse_request_xml(xml) is memoised
            assert memoised.fingerprint() == fresh.fingerprint() == request.fingerprint()
            assert memoised.all_attributes() == fresh.all_attributes()
            expected = reference.evaluate(fresh)
            actual = fast.evaluate(memoised)
            assert actual.decision is expected.decision
            assert actual.policy_id == expected.policy_id
