"""Tests for the policy store, target index, decision cache and PDP."""

import pytest

from repro.errors import PolicyStoreError
from repro.xacml.attributes import (
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)
from repro.xacml.functions import STRING_REGEXP_MATCH
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Decision, Effect, Obligation
from repro.xacml.store import PolicyStore


def make_policy(policy_id, subject=None, resource=None, effect=Effect.PERMIT,
                obligations=()):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject, resource=resource),
        rules=[Rule(f"{policy_id}:rule", effect)],
        obligations=obligations,
    )


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

    def test_load_still_flushes_wholesale(self):
        store = PolicyStore()
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("u", "weather")
        assert pdp.evaluate(request).decision is Decision.NOT_APPLICABLE
        store.load(make_policy("p1"))
        assert pdp.evaluate(request).decision is Decision.PERMIT
        assert pdp.cache_stats()["full_flushes"] == 1

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

    def test_cached_response_keeps_obligations(self):
        store = PolicyStore()
        obligation = Obligation("ob1", Effect.PERMIT)
        store.load(make_policy("p1", subject="LTA", obligations=[obligation]))
        pdp = PolicyDecisionPoint(store)
        request = Request.simple("LTA", "weather")
        assert pdp.evaluate(request).obligations == (obligation,)
        assert pdp.evaluate(request).obligations == (obligation,)
        assert pdp.cache.hits == 1
