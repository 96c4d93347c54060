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
  *targeted* invalidation for every store event.  Each entry is linked
  two ways: by the candidate policy ids that produced it (its
  *buckets*), and by the subject-id / resource-id / action-id literals
  its request carries — an inverted index over cached requests, the
  dual of :class:`~repro.xacml.index.PolicyIndex`.  One policy's load,
  update or removal evicts only the entries it can have changed;
  unrelated hot entries stay warm, and no event walks the cache.

Why targeted eviction is sound (given the index's over-approximation
guarantee — a policy absent from a request's candidate set can never
be applicable to it):

- ``removed``: entries that never considered P cannot change when P
  disappears — evicting P's bucket alone is exact;
- ``loaded``: the guarantee read backwards — a target that needs
  literal *v* in a category cannot apply to a request that does not
  carry *v*, so only the entries holding, in every category the target
  constrains, one of its literals (:meth:`DecisionCache.reach`) can
  change; wherever the new policy sits in evaluation order (pinned
  ``sequence`` loads included), a NotApplicable policy is ignored.  A
  target that constrains no indexed category can turn any cached
  NotApplicable into a Permit, so it still flushes wholesale;
- ``updated``: P's bucket covers every entry the *old* version could
  have influenced, the new version's reach every entry it may newly
  match.

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
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.xacml.combining import PolicyCombiningAlgorithm
from repro.xacml.index import INDEXED_CATEGORIES, intersect_unions, target_keys
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


#: The ``(category, attribute id)`` fingerprint prefixes of the identity
#: attributes — the same three the target index keys policies by.
_IDENTITY = frozenset(
    (category.value, attribute_id) for category, attribute_id in INDEXED_CATEGORIES
)


def _literals(key: tuple) -> Set[Tuple[str, str]]:
    """The ``(category, literal)`` pairs the request behind *key* carries.

    A fingerprint item is ``(category, attribute id, datatype, class,
    str(value))``, so the key itself holds exactly what the entry was
    decided for — keyed by ``str(value)``, as the target index is.
    """
    return {(item[0], item[4]) for item in key if (item[0], item[1]) in _IDENTITY}


def _unlink(index: dict, link, key: tuple) -> None:
    holders = index.get(link)
    if holders is not None:
        holders.discard(key)
        if not holders:
            del index[link]


class _CacheEntry:
    """One cached decision: the response and the candidate-policy ids
    considered (the entry's buckets)."""

    __slots__ = ("response", "candidate_ids")

    def __init__(self, response: Response, candidate_ids: FrozenSet[str]):
        self.response = response
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
        "targeted_evictions", "entries", "buckets", "literals",
    )

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Store events that invalidated cache state (any kind).
        self.invalidations = 0
        #: Whole-cache flushes (unconstrained loads, explicit flushes).
        self.full_flushes = 0
        #: Entries evicted by targeted (per-policy) invalidation.
        self.targeted_evictions = 0
        self.entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        #: policy id → cache keys of the entries that considered it.
        self.buckets: Dict[str, Set[tuple]] = {}
        #: (category, literal) → cache keys of the entries carrying it.
        self.literals: Dict[Tuple[str, str], Set[tuple]] = {}

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

    def put(self, key: tuple, response: Response, candidate_ids: FrozenSet[str]) -> None:
        """Insert a decision, link it by candidate ids and by the
        literals its key carries, trim to capacity."""
        self.drop(key)  # a replaced entry must not leave its old links behind
        self.entries[key] = _CacheEntry(response, candidate_ids)
        for policy_id in candidate_ids:
            self.buckets.setdefault(policy_id, set()).add(key)
        for literal in _literals(key):
            self.literals.setdefault(literal, set()).add(key)
        while len(self.entries) > self.capacity:
            self.drop(next(iter(self.entries)))

    def on_store_event(self, event: str, policy) -> None:
        """React to one ``loaded``/``updated``/``removed`` event."""
        self.invalidations += 1
        if event == "removed":
            self.evict_bucket(policy.policy_id)
        elif event == "updated":
            self.evict_bucket(policy.policy_id)
            self.evict_reach(policy)
        elif event == "loaded":
            self.evict_reach(policy)
        else:
            self.flush()  # unknown event: conservatively, everything

    def clear(self) -> None:
        """Drop every entry and every link; count nothing."""
        self.entries.clear()
        self.buckets.clear()
        self.literals.clear()

    def flush(self) -> None:
        self.clear()
        self.full_flushes += 1

    def drop(self, key: tuple) -> None:
        """Remove one entry and unlink it from every set it is in."""
        entry = self.entries.pop(key, None)
        if entry is None:
            return
        for policy_id in entry.candidate_ids:
            _unlink(self.buckets, policy_id, key)
        for literal in _literals(key):
            _unlink(self.literals, literal, key)

    def _evict(self, keys) -> None:
        for key in keys:
            self.targeted_evictions += 1
            self.drop(key)

    def evict_bucket(self, policy_id: str) -> None:
        """Evict every entry whose decision considered *policy_id*."""
        self._evict(self.buckets.pop(policy_id, ()))

    def evict_reach(self, policy) -> None:
        """Evict every entry *policy*'s target could match."""
        if not self.entries:
            return  # nothing to reach: a load onto a cold cache is O(1)
        reached = self.reach(policy)
        if reached is None:
            # No indexed category constrains the target: the policy can
            # change any decision — NotApplicable may become Permit.
            self.flush()
        else:
            self._evict(reached)

    def reach(self, policy) -> Optional[Set[tuple]]:
        """Keys of the entries *policy*'s target could match — a fresh
        set — or None when it constrains no indexed category.

        Per constrained category, an entry must carry one of the
        target's literals: the intersection, over those categories, of
        the unions of holders (:func:`~repro.xacml.index.intersect_unions`).
        """
        constrained = []
        for category, literals in target_keys(policy.target).items():
            if literals is None:
                continue
            holders = [
                self.literals[link]
                for link in ((category.value, literal) for literal in literals)
                if link in self.literals
            ]
            if not holders:
                return set()
            constrained.append(holders)
        if not constrained:
            return None
        return intersect_unions(constrained)

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
        self._combining = combining
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
        self.cache.clear()

    @property
    def combining(self) -> str:
        return self._combining

    @combining.setter
    def combining(self, name: str) -> None:
        # Cached decisions are keyed by request fingerprint only.
        self._combining = name
        self.flush_cache()

    # -- invalidation -----------------------------------------------------------

    def _on_store_event(self, event: str, policy) -> None:
        self.cache.on_store_event(event, policy)

    def flush_cache(self) -> None:
        """Drop every cached decision (counted as a full flush).

        For callers that change decision-relevant state the store cannot
        observe — the :attr:`combining` setter calls it — and for
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
        self.cache.put(key, response, frozenset(p.policy_id for p in candidates))
        return response

    def _candidates(self, request: Request):
        return self.store.policies_for(request)

    def _decide(self, candidates, request: Request) -> Response:
        return decide(candidates, request, self._combining)

    def cache_stats(self) -> dict:
        """A fresh counter snapshot for monitoring, benchmarks and tests."""
        return self.cache.stats()


class _LinearScanPDP(PolicyDecisionPoint):
    """:meth:`PolicyDecisionPoint.reference`: every policy is a candidate."""

    def _candidates(self, request: Request):
        return self.store.policies()
