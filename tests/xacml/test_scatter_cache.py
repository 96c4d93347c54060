"""Concurrency suite for the scatter-path decision cache + single-flight.

The scatter path (`repro.xacml.sharding.ScatterEvaluator`) caches
shard-spanning decisions by request fingerprint, invalidates them
through the invalidation bus's per-policy buckets, and de-duplicates
concurrent identical merges single-flight.  The guarantees pinned here:

- N concurrent identical scatter requests perform **one** merge and all
  observe the same (correct) response;
- a mutation that completes is never masked by cached or in-flight
  state: an evaluation issued after the mutation returns sees the
  post-mutation decision, and a merge an invalidation overlapped is
  never cached and never handed to waiters (they retry against the
  post-mutation store);
- a failed leader wakes its waiters instead of stranding them;
- ``cache_size=0`` reproduces the PR 4 uncached path exactly.

Thread scope note: the *scatter* path is the concurrent surface; each
shard PDP stays serial (one thread / one worker process per shard), so
the storms here use shard-spanning requests throughout.
"""

import threading
import time

import pytest

from repro.errors import PolicyStoreError, ShardUnavailableError
from repro.xacml.attributes import (
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Decision, Effect
from repro.xacml.sharding import ShardedPDP, ShardedPolicyStore, shard_of
from repro.xacml.sharding.scatter import ScatterEvaluator
from tests.conftest import NoWalk, live_keys, wall_clock_guard

N_SHARDS = 4


def permit_policy(policy_id, subject=None, effect=Effect.PERMIT):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject),
        rules=[Rule(f"{policy_id}:r", effect)],
    )


def stream_policy(policy_id, stream, subject, effect=Effect.PERMIT):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject, resource=stream),
        rules=[Rule(f"{policy_id}:r", effect)],
    )


def distinct_shard_subjects(count, n_shards=N_SHARDS):
    chosen, seen, i = [], set(), 0
    while len(chosen) < count:
        name = f"user{i}"
        shard = shard_of(name, n_shards)
        if shard not in seen:
            seen.add(shard)
            chosen.append(name)
        i += 1
    return chosen


def spanning_request(subjects, stream="weather0"):
    """A request whose subject values span the given (multi-)shards."""
    request = Request.simple(subjects[0], stream)
    for subject in subjects[1:]:
        request.add(
            Attribute(
                AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string(subject)
            )
        )
    return request


def make_engine():
    store = ShardedPolicyStore(N_SHARDS)
    pdp = ShardedPDP(store, cache_size=64)
    subject_a, subject_b = distinct_shard_subjects(2)
    store.load(permit_policy("pa", subject=subject_a))
    store.load(permit_policy("pb", subject=subject_b))
    return store, pdp, spanning_request([subject_a, subject_b]), (subject_a, subject_b)


def run_threads(n, target):
    threads = [threading.Thread(target=target) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker thread hung"


class TestScatterCacheBasics:
    def test_identical_scatter_requests_merge_once(self):
        store, pdp, request, _ = make_engine()
        first = pdp.evaluate(request)
        for _ in range(5):
            assert pdp.evaluate(request).policy_id == first.policy_id
        stats = pdp.cache_stats()
        assert stats["scatter_merges"] == 1
        assert stats["scatter_hits"] == 5
        assert stats["scattered"] == 6 and stats["routed"] == 0

    def test_lru_capacity_bounds_scatter_entries(self):
        store = ShardedPolicyStore(N_SHARDS)
        pdp = ShardedPDP(store, cache_size=4)
        subject_a, subject_b = distinct_shard_subjects(2)
        store.load(permit_policy("pa", subject=subject_a))
        store.load(permit_policy("pb", subject=subject_b))
        for i in range(10):
            pdp.evaluate(spanning_request([subject_a, subject_b], stream=f"stream{i}"))
        assert pdp.cache_stats()["scatter_entries"] <= 4

    def test_cache_stats_is_a_pure_snapshot(self):
        store, pdp, request, _ = make_engine()
        pdp.evaluate(request)
        first = pdp.cache_stats()
        second = pdp.cache_stats()
        assert first == second
        assert first is not second
        first["hits"] = 10**6  # mutating a snapshot must not leak back
        assert pdp.cache_stats() == second
        assert second["evaluations"] == second["routed"] + second["scattered"]


class TestInvalidation:
    def test_update_and_remove_evict_through_bus_buckets(self):
        store, pdp, request, (subject_a, subject_b) = make_engine()
        assert pdp.evaluate(request).policy_id == "pa"  # first-applicable
        # Flip pa to DENY: its bucket must evict the cached entry.
        store.update(permit_policy("pa", subject=subject_a, effect=Effect.DENY))
        response = pdp.evaluate(request)
        assert response.decision is Decision.DENY and response.policy_id == "pa"
        store.remove("pa")
        response = pdp.evaluate(request)
        assert response.decision is Decision.PERMIT and response.policy_id == "pb"
        assert pdp.cache_stats()["scatter_targeted_evictions"] >= 2

    def test_load_evicts_the_reachable_scatter_entry_and_keeps_the_rest_warm(self):
        store, pdp, request, (subject_a, subject_b) = make_engine()
        bystander = spanning_request([subject_a, subject_b], stream="gps0")
        pdp.evaluate(request)
        pdp.evaluate(bystander)
        assert pdp.cache_stats()["scatter_entries"] == 2
        # A load for a never-requested stream reaches nothing.
        store.load(stream_policy("p-stranger", "nowhere", subject_a))
        stats = pdp.cache_stats()
        assert stats["scatter_entries"] == 2
        assert (stats["scatter_full_flushes"], stats["scatter_targeted_evictions"]) == (0, 0)
        # A load for weather0 evicts weather0's entry alone ...
        store.load(stream_policy("p-weather", "weather0", subject_a, effect=Effect.DENY))
        assert bystander.fingerprint() in pdp.scatter.cache.entries
        assert request.fingerprint() not in pdp.scatter.cache.entries
        # ... (loaded after pa: first-applicable still decides at pa)
        assert pdp.evaluate(request).policy_id == "pa"
        hits_before = pdp.cache_stats()["scatter_hits"]
        assert pdp.evaluate(bystander).policy_id == "pa"
        stats = pdp.cache_stats()
        assert stats["scatter_hits"] == hits_before + 1
        assert (stats["scatter_full_flushes"], stats["scatter_targeted_evictions"]) == (0, 1)

    def test_load_reaches_a_spanning_request_through_either_subject(self):
        store, pdp, request, (subject_a, subject_b) = make_engine()
        for index, subject in enumerate((subject_b, subject_a)):
            pdp.evaluate(request)
            assert pdp.cache_stats()["scatter_entries"] == 1
            store.load(permit_policy(f"pc{index}", subject=subject, effect=Effect.DENY))
            assert pdp.cache_stats()["scatter_entries"] == 0
        assert pdp.cache_stats()["scatter_full_flushes"] == 0

    def test_unconstrained_load_flushes_the_scatter_cache(self):
        store, pdp, request, _ = make_engine()
        pdp.evaluate(request)
        store.load(permit_policy("p-any", effect=Effect.DENY))
        stats = pdp.cache_stats()
        assert (stats["scatter_entries"], stats["scatter_full_flushes"]) == (0, 1)
        assert pdp.evaluate(request).policy_id == "pa"

    def test_detach_leaves_no_link_behind(self):
        store, pdp, request, _ = make_engine()
        pdp.evaluate(request)
        pdp.scatter.detach()
        cache = pdp.scatter.cache
        assert (len(cache), cache.buckets, cache.literals) == (0, {}, {})

    def test_no_bus_event_walks_the_scatter_cache(self):
        """The iteration-raises pin of ``tests/xacml/test_pdp_store.py``,
        through the bus: unrelated events touch nothing, a related
        update evicts exactly what it reaches."""
        store = ShardedPolicyStore(N_SHARDS)
        pdp = ShardedPDP(store, cache_size=2048)
        subject_a, subject_b, subject_c = distinct_shard_subjects(3)
        store.load(permit_policy("pa", subject=subject_a))
        store.load(stream_policy("p-victim", "nowhere", "mallory"))
        requests = {
            (stream, pair): spanning_request(list(pair), stream=stream)
            for stream in (f"stream{i}" for i in range(500))
            for pair in ((subject_a, subject_b), (subject_b, subject_c))
        }
        for request in requests.values():
            pdp.evaluate(request)
        cache = pdp.scatter.cache
        assert len(cache) == 1000
        cache.entries = NoWalk(cache.entries)
        before = live_keys(cache)

        store.load(stream_policy("p-new", "trent", subject_a))
        store.update(stream_policy("p-victim", "elsewhere", "mallory"))
        store.remove("p-new")
        assert live_keys(cache) == before
        stats = pdp.cache_stats()
        assert (stats["scatter_full_flushes"], stats["scatter_targeted_evictions"]) == (0, 0)

        store.update(permit_policy("p-victim", subject=subject_c))
        reachable = {
            request.fingerprint()
            for (_, pair), request in requests.items() if subject_c in pair
        }
        assert before - live_keys(cache) == reachable
        assert pdp.cache_stats()["scatter_targeted_evictions"] == len(reachable) == 500

    def test_unrelated_policy_churn_keeps_entry_warm(self):
        store, pdp, request, (subject_a, subject_b) = make_engine()
        store.load(permit_policy("px", subject="unrelated-user"))
        pdp.evaluate(request)
        store.update(permit_policy("px", subject="unrelated-user", effect=Effect.DENY))
        store.remove("px")
        assert pdp.evaluate(request).policy_id == "pa"
        stats = pdp.cache_stats()
        assert stats["scatter_hits"] == 1  # survived both mutations
        assert stats["scatter_entries"] == 1


class TestSingleFlight:
    def test_storm_coalesces_to_one_merge(self):
        store, pdp, request, _ = make_engine()
        gate = threading.Event()
        original = store.policies_for

        def slow_policies_for(req):
            gate.wait(timeout=10)
            time.sleep(0.02)  # hold the merge open so waiters pile up
            return original(req)

        store.policies_for = slow_policies_for
        results = []
        results_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            gate.set()
            response = pdp.evaluate(request)
            with results_lock:
                results.append((response.decision, response.policy_id))

        run_threads(8, worker)
        assert set(results) == {(Decision.PERMIT, "pa")}
        stats = pdp.cache_stats()
        assert stats["scatter_merges"] == 1
        assert stats["scatter_coalesced"] >= 1
        assert stats["scattered"] == 8

    def test_overlapped_merge_is_not_cached_and_waiter_rereads(self):
        store, pdp, request, (subject_a, _) = make_engine()
        merge_entered = threading.Event()
        merge_release = threading.Event()
        original = store.policies_for
        blocking = [True]

        def gated_policies_for(req):
            candidates = original(req)  # gather *pre*-mutation state
            if blocking[0]:
                blocking[0] = False
                merge_entered.set()
                assert merge_release.wait(timeout=10)
            return candidates

        store.policies_for = gated_policies_for
        leader_response = []

        def leader():
            leader_response.append(pdp.evaluate(request))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert merge_entered.wait(timeout=10)
        # The mutation completes while the leader's merge is in flight.
        store.update(permit_policy("pa", subject=subject_a, effect=Effect.DENY))
        waiter_response = []

        def waiter():
            # Joined after the mutation: must observe DENY, never the
            # leader's pre-mutation PERMIT.
            waiter_response.append(pdp.evaluate(request))

        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        # Let the waiter reach the in-flight call before releasing.
        deadline = time.time() + 10
        while pdp.scatter.coalesced == 0 and time.time() < deadline:
            time.sleep(0.001)
        assert pdp.scatter.coalesced == 1
        merge_release.set()
        leader_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        assert not leader_thread.is_alive() and not waiter_thread.is_alive()
        # Leader returns the decision of its own (pre-mutation) snapshot
        # — its request was concurrent with the mutation — but the
        # overlapped merge is never cached.
        assert leader_response[0].decision is Decision.PERMIT
        assert waiter_response[0].decision is Decision.DENY
        stats = pdp.cache_stats()
        assert stats["scatter_retries"] == 1
        # The cached entry (if any) is the waiter's fresh merge.
        assert pdp.evaluate(request).decision is Decision.DENY

    def test_failed_leader_wakes_waiters(self):
        store, pdp, request, _ = make_engine()
        original = store.policies_for
        entered = threading.Event()
        release = threading.Event()
        fail_first = [True]

        def failing_policies_for(req):
            if fail_first[0]:
                fail_first[0] = False
                entered.set()
                assert release.wait(timeout=10)
                raise RuntimeError("injected gather failure")
            return original(req)

        store.policies_for = failing_policies_for
        errors, responses = [], []

        def leader():
            try:
                pdp.evaluate(request)
            except RuntimeError as error:
                errors.append(error)

        def waiter():
            responses.append(pdp.evaluate(request))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert entered.wait(timeout=10)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        deadline = time.time() + 10
        while pdp.scatter.coalesced == 0 and time.time() < deadline:
            time.sleep(0.001)
        release.set()
        leader_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        assert not leader_thread.is_alive() and not waiter_thread.is_alive()
        assert len(errors) == 1  # the leader surfaced the failure
        assert len(responses) == 1  # the waiter retried and succeeded
        assert responses[0].policy_id == "pa"

    def test_a_waiter_gives_up_on_a_hung_leader(self, monkeypatch):
        store, pdp, request, _ = make_engine()
        monkeypatch.setattr(ScatterEvaluator, "WAIT_TIMEOUT", 0.1)
        original = store.policies_for
        entered, release = threading.Event(), threading.Event()

        def hung_policies_for(req):
            entered.set()
            assert release.wait(timeout=10)
            return original(req)

        store.policies_for = hung_policies_for
        responses = []
        with wall_clock_guard(5):
            leader_thread = threading.Thread(
                target=lambda: responses.append(pdp.evaluate(request))
            )
            leader_thread.start()
            assert entered.wait(timeout=10)
            # This thread joins the leader's merge, then gives up on it.
            with pytest.raises(ShardUnavailableError) as raised:
                pdp.evaluate(request)
            assert raised.value.retryable
            assert pdp.cache_stats()["scatter_timeouts"] == 1
            release.set()
            leader_thread.join(timeout=10)
        assert not leader_thread.is_alive()
        # The leader's later merge is cached exactly once, and serves.
        assert pdp.evaluate(request).policy_id == responses[0].policy_id
        stats = pdp.cache_stats()
        assert (stats["scatter_merges"], stats["scatter_coalesced"]) == (1, 1)
        assert (stats["scatter_entries"], stats["scatter_hits"]) == (1, 1)


class TestStormsWithMutations:
    def test_completed_mutations_are_never_masked(self):
        """Reader threads hammer scatter requests while the main thread
        toggles the deciding policy; after every mutation returns, the
        very next evaluation must reflect it — cached, coalesced or
        merged."""
        store, pdp, request, (subject_a, _) = make_engine()
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                response = pdp.evaluate(request)
                # Only the two legitimate regimes may ever be observed.
                if response.policy_id != "pa" or response.decision not in (
                    Decision.PERMIT,
                    Decision.DENY,
                ):
                    failures.append(response)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        effects = (Effect.DENY, Effect.PERMIT)
        try:
            for i in range(200):
                effect = effects[i % 2]
                store.update(permit_policy("pa", subject=subject_a, effect=effect))
                response = pdp.evaluate(request)
                assert response.decision is effect.decision, f"round {i}"
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)
        stats = pdp.cache_stats()
        assert stats["evaluations"] == stats["routed"] + stats["scattered"]

    def test_storm_with_loads_and_removes(self):
        """Loads that reach the cached entry interleaved with the storm: readers
        may see either regime mid-flight but the main thread always sees
        its own mutation."""
        store, pdp, request, (subject_a, subject_b) = make_engine()
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                response = pdp.evaluate(request)
                if response.decision is not Decision.PERMIT:
                    failures.append(response)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(60):
                extra = permit_policy(f"extra{i}", subject=subject_a)
                store.load(extra)
                assert pdp.evaluate(request).decision is Decision.PERMIT
                store.remove(extra.policy_id)
                assert pdp.evaluate(request).policy_id == "pa"
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
