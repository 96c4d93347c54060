"""The Policy Decision Point.

"The PDP manages policies and evaluates user requests against the stored
policies, the result of which are permit or deny decisions ... In
addition to permit/deny decision, the PDP also returns a set of
obligations to the PEP." (paper Section 2.1)

The seed implementation scanned every loaded policy for every request.
The production PDP always runs two fast paths; the seed behaviour stays
available only as the differential-test oracle
(:meth:`PolicyDecisionPoint.reference` — linear scan, no cache):

- **indexed candidate selection** — the store's target index narrows the
  scan to the plausibly applicable policies (see
  :meth:`~repro.xacml.store.PolicyStore.policies_for`);
- **decision caching** — an LRU cache from the request fingerprint to
  the full response (decision, obligations, deciding policy), with
  *per-policy* invalidation: every entry is bucketed by the candidate
  policy ids that produced it, so removing or updating policy P evicts
  only P's bucket (plus, for updates, the entries the new version could
  newly reach) while unrelated hot entries stay warm.  ``load`` events
  still flush wholesale — a brand-new policy can turn any cached
  NotApplicable into a Permit, and it has no bucket yet.

Why targeted eviction is sound (given the index's over-approximation
guarantee — a policy absent from a request's candidate set can never
be applicable to it):

- ``removed``: entries that never considered P cannot change when P
  disappears — evicting P's bucket alone is exact;
- ``updated``: P's bucket covers every entry the *old* version could
  have influenced; the *new* version may newly match requests that
  never saw P, so entries whose stored request the new target could
  plausibly match (probed through a single-policy
  :class:`~repro.xacml.index.PolicyIndex`) are evicted too.

Both paths are decision- and obligation-identical to the linear scan for
the built-in combining algorithms, which ignore NotApplicable policies.
A custom :class:`~repro.xacml.combining.PolicyCombiningAlgorithm` that
is sensitive to non-applicable entries must use a reference PDP.

This PDP is also the reference mode for the *sharded* engine: a
:class:`~repro.xacml.sharding.ShardedPDP` over N shard stores must be
decision-identical to one ``PolicyDecisionPoint.reference()`` over a
single store holding the same policies (the sharding differential
harness pins it), and each shard internally runs one of these PDPs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Set

from repro.xacml.combining import PolicyCombiningAlgorithm
from repro.xacml.request import Request
from repro.xacml.response import Decision, Response
from repro.xacml.store import PolicyStore

#: Default number of cached decisions.
DEFAULT_CACHE_SIZE = 4096


def decide(candidates, request: Request, combining: str) -> Response:
    """Combine *candidates* (in evaluation order) into one :class:`Response`.

    The single authoritative decision-assembly step: both the per-store
    PDP below and the cross-shard scatter path of
    :class:`~repro.xacml.sharding.ShardedPDP` build their responses here,
    so the two can only diverge in candidate *selection*, never in how a
    candidate list turns into a decision.
    """
    algorithm = PolicyCombiningAlgorithm.get(combining)
    decision, policy = algorithm.combine(candidates, request)
    if policy is None:
        return Response(
            Decision.NOT_APPLICABLE,
            status_message="no applicable policy",
        )
    return Response(
        decision,
        obligations=policy.obligations_for(decision),
        policy_id=policy.policy_id,
    )


class _CacheEntry:
    """One cached decision: the response, the request that produced it,
    and the candidate-policy ids considered (the entry's buckets)."""

    __slots__ = ("response", "request", "candidate_ids")

    def __init__(self, response: Response, request: Request, candidate_ids: FrozenSet[str]):
        self.response = response
        self.request = request
        self.candidate_ids = candidate_ids


class DecisionCache:
    """An LRU of request fingerprints → full responses, invalidated per
    policy through store events.

    The caching machinery the module docstring describes, factored out of
    the PDP so every decision-caching tier shares one implementation: the
    per-store PDP below and the cross-shard *scatter* cache of
    :class:`~repro.xacml.sharding.ShardedPDP` (which feeds it bus events
    instead of store events — same contract, same soundness argument).
    Callers own thread-safety: the PDP runs it single-threaded, the
    scatter path serialises access behind its single-flight lock.
    """

    __slots__ = (
        "capacity", "hits", "misses", "invalidations", "full_flushes",
        "targeted_evictions", "entries", "buckets",
    )

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Store events that invalidated cache state (any kind).
        self.invalidations = 0
        #: Events that flushed the whole cache (loads).
        self.full_flushes = 0
        #: Entries evicted by targeted (per-policy) invalidation.
        self.targeted_evictions = 0
        self.entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        #: policy id → cache keys of the entries that considered it.
        self.buckets: Dict[str, Set[tuple]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: tuple) -> Optional[Response]:
        """The cached response for *key*, refreshed to most-recent, or None."""
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return entry.response

    def put(
        self,
        key: tuple,
        response: Response,
        request: Request,
        candidate_ids: FrozenSet[str],
    ) -> None:
        """Insert a decision, bucket it by candidate ids, trim to capacity."""
        self.entries[key] = _CacheEntry(response, request, candidate_ids)
        for policy_id in candidate_ids:
            self.buckets.setdefault(policy_id, set()).add(key)
        while len(self.entries) > self.capacity:
            self.drop(next(iter(self.entries)))

    def on_store_event(self, event: str, policy) -> None:
        """React to one ``loaded``/``updated``/``removed`` event."""
        self.invalidations += 1
        if event == "removed":
            self.evict_bucket(policy.policy_id)
        elif event == "updated":
            self.evict_bucket(policy.policy_id)
            self.evict_newly_matching(policy)
        else:
            # "loaded" (and any unknown event, conservatively): a new
            # policy can change any decision — NotApplicable may become
            # Permit — and it has no bucket yet, so flush wholesale.
            self.flush()

    def flush(self) -> None:
        if self.entries:
            self.entries.clear()
            self.buckets.clear()
        self.full_flushes += 1

    def drop(self, key: tuple) -> None:
        """Remove one entry and unlink it from every bucket it is in."""
        entry = self.entries.pop(key, None)
        if entry is None:
            return
        for policy_id in entry.candidate_ids:
            bucket = self.buckets.get(policy_id)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self.buckets[policy_id]

    def evict_bucket(self, policy_id: str) -> None:
        """Evict every entry whose decision considered *policy_id*."""
        for key in self.buckets.pop(policy_id, ()):
            self.targeted_evictions += 1
            self.drop(key)

    def evict_newly_matching(self, policy) -> None:
        """Evict entries the updated *policy*'s new target could reach.

        Probes each surviving entry's stored request through a
        single-policy index: a non-empty candidate set means the new
        version plausibly matches that request, so the entry may be
        stale even though the old version never considered it.
        The stored request is what the entry was decided for: parsed
        requests are sealed (``parse_request_xml``), and a caller that
        built its own can only have *added* attributes since, which
        keeps the probe an over-approximation.
        """
        from repro.xacml.index import PolicyIndex

        probe = PolicyIndex()
        probe.add(policy)
        stale = [
            key
            for key, entry in self.entries.items()
            if probe.candidate_ids(entry.request)
        ]
        for key in stale:
            self.targeted_evictions += 1
            self.drop(key)

    def stats(self) -> dict:
        """A fresh counter snapshot (never a live/shared mapping)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "full_flushes": self.full_flushes,
            "targeted_evictions": self.targeted_evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


class PolicyDecisionPoint:
    """Evaluates requests against a :class:`PolicyStore`."""

    def __init__(
        self,
        store: Optional[PolicyStore] = None,
        combining: str = "first-applicable",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.store = store if store is not None else PolicyStore()
        self.combining = combining
        self.cache_size = cache_size
        #: Number of evaluations performed (exported to the benchmarks).
        self.evaluations = 0
        self.cache = DecisionCache(cache_size)
        # Only a caching PDP needs store events (the index lives in the
        # store itself), so cache-less PDPs — reference mode included —
        # don't pin themselves to the store's listener list.
        if cache_size > 0:
            self.store.add_listener(self._on_store_event)

    @classmethod
    def reference(
        cls,
        store: Optional[PolicyStore] = None,
        combining: str = "first-applicable",
    ) -> "PolicyDecisionPoint":
        """The oracle, on the seed linear-scan path: no index, no cache."""
        return _LinearScanPDP(store, combining, cache_size=0)

    def detach(self) -> None:
        """Unregister from the store and drop the cache.

        Call when discarding a transient PDP over a long-lived store, so
        the store's listener list doesn't keep the PDP (and its cache)
        alive and invoked forever.
        """
        self.store.remove_listener(self._on_store_event)
        self.cache.entries.clear()
        self.cache.buckets.clear()

    # -- invalidation -----------------------------------------------------------

    def _on_store_event(self, event: str, policy) -> None:
        self.cache.on_store_event(event, policy)

    def flush_cache(self) -> None:
        """Drop every cached decision (counted as a full flush).

        For callers that change decision-relevant state the store cannot
        observe — e.g. switching the combining algorithm — and for
        benchmarks that need cold caches between rounds.
        """
        self.cache.flush()

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, request: Request) -> Response:
        """Evaluate *request*; return decision + deciding policy's obligations."""
        self.evaluations += 1
        if self.cache_size <= 0:
            # Cache-less PDPs (reference mode included) skip fingerprint
            # and candidate-id bookkeeping entirely — seed-identical work.
            return self._decide(self._candidates(request), request)
        key = request.fingerprint()
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        candidates = self._candidates(request)
        response = self._decide(candidates, request)
        self.cache.put(
            key, response, request, frozenset(p.policy_id for p in candidates)
        )
        return response

    def _candidates(self, request: Request):
        return self.store.policies_for(request)

    def _decide(self, candidates, request: Request) -> Response:
        return decide(candidates, request, self.combining)

    def cache_stats(self) -> dict:
        """A fresh counter snapshot for monitoring, benchmarks and tests."""
        return self.cache.stats()


class _LinearScanPDP(PolicyDecisionPoint):
    """:meth:`PolicyDecisionPoint.reference`: every policy is a candidate."""

    def _candidates(self, request: Request):
        return self.store.policies()
