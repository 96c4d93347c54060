"""The sharded evaluator: one routing core, and its in-process form
(:class:`~repro.xacml.sharding.pool.ProcessShardPool` is the other)."""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.xacml.pdp import DEFAULT_CACHE_SIZE, PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.response import Response
from repro.xacml.sharding.scatter import ScatterEvaluator
from repro.xacml.sharding.store import ShardedPolicyStore


class ShardRouter:
    """What every sharded evaluator does the same way: split a batch
    into per-shard chunks and a scatter share, count the split, merge
    the scatter share through the :class:`ScatterEvaluator`, flush and
    report caches.

    A subclass supplies only where a shard's PDP runs:
    :meth:`_evaluate_routed` (how the per-shard chunks of a batch are
    evaluated), ``_shard_cache_stats()`` (one ``DecisionCache.stats()``
    snapshot per reachable shard) and ``_flush_shard_caches()``.
    *cache_size* sizes every decision cache of the evaluator — each
    shard PDP's and the scatter cache.
    """

    def __init__(self, store: ShardedPolicyStore, combining: str, cache_size: int):
        self.store = store
        self._combining = combining
        self.scatter = ScatterEvaluator(store, combining, cache_size)
        self._counter_lock = threading.Lock()
        #: Requests answered by a single shard's PDP.
        self.routed_evaluations = 0  # guarded by: self._counter_lock
        #: Requests that had to gather candidates across shards.
        self.scatter_evaluations = 0  # guarded by: self._counter_lock

    @property
    def n_shards(self) -> int:
        return self.store.n_shards

    @property
    def combining(self) -> str:
        return self._combining

    @property
    def evaluations(self) -> int:
        """Requests evaluated (routed + scattered), mirroring the PDP counter."""
        return self.routed_evaluations + self.scatter_evaluations

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, request: Request) -> Response:
        return self.evaluate_many([request])[0]

    def evaluate_many(self, requests: Sequence[Request]) -> List[Response]:
        """Evaluate a batch; ``responses[i]`` answers ``requests[i]``.

        A request routing to one shard joins that shard's chunk; a
        request spanning shards is merged by the scatter evaluator.
        The split is counted only once the whole batch has answered,
        so ``evaluations == routed + scattered`` counts answers given.
        """
        responses: List[Optional[Response]] = [None] * len(requests)
        per_shard: Dict[int, List[int]] = {}
        scatter_indices: List[int] = []
        shards_for_request = self.store.shards_for_request
        for index, request in enumerate(requests):
            shard_ids = shards_for_request(request)
            if len(shard_ids) == 1:
                per_shard.setdefault(shard_ids[0], []).append(index)
            else:
                scatter_indices.append(index)

        def merge_scatter() -> None:
            for index in scatter_indices:
                responses[index] = self.scatter.evaluate(requests[index])

        self._evaluate_routed(requests, per_shard, responses, merge_scatter)
        with self._counter_lock:
            self.routed_evaluations += len(requests) - len(scatter_indices)
            self.scatter_evaluations += len(scatter_indices)
        return responses

    def _evaluate_routed(
        self,
        requests: Sequence[Request],
        per_shard: Dict[int, List[int]],
        responses: List[Optional[Response]],
        merge_scatter: Callable[[], None],
    ) -> None:
        """Answer ``requests[i]`` into ``responses[i]`` for every index
        in *per_shard* (shard id → request indices), and call
        *merge_scatter* exactly once — at the point where this thread
        would otherwise idle while shards work."""
        raise NotImplementedError

    # -- caches -----------------------------------------------------------------

    def flush_caches(self) -> None:
        """Cold-start every decision cache (shards + scatter)."""
        self._flush_shard_caches()
        self.scatter.flush()

    def cache_stats(self) -> dict:
        """A pure snapshot: aggregated shard counters, scatter-cache
        counters (``scatter_*``) and the routing split.

        Built fresh on every call from the live per-shard and scatter
        snapshots — nothing here mutates or retains aggregation state,
        so repeated calls (and calls across pool close/re-register
        cycles) can never double-count.
        """
        return self._aggregate_cache_stats(self._shard_cache_stats())

    def _aggregate_cache_stats(self, shard_stats: List[dict]) -> dict:
        totals = {
            "entries": 0, "hits": 0, "misses": 0, "invalidations": 0,
            "full_flushes": 0, "targeted_evictions": 0,
        }
        for stats in shard_stats:
            for key in totals:
                totals[key] += stats[key]
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        for key, value in self.scatter.stats().items():
            totals[f"scatter_{key}"] = value
        with self._counter_lock:
            totals["routed"] = self.routed_evaluations
            totals["scattered"] = self.scatter_evaluations
        totals["evaluations"] = totals["routed"] + totals["scattered"]
        return totals


class ShardedPDP(ShardRouter):
    """Routes each request to the owning shard's PDP.

    Every shard runs a full fast-path :class:`PolicyDecisionPoint`
    (target index + per-policy-invalidated decision cache) over its
    shard store; shard-spanning requests go through the
    :class:`ScatterEvaluator` — the merged, globally-ordered candidate
    list combined by the shared :func:`repro.xacml.pdp.decide` step,
    fronted by the scatter decision cache with single-flight
    de-duplication.  Decision- and obligation-identical to a single
    ``PolicyDecisionPoint`` over the same policy population for the
    built-in combining algorithms (the property harness proves it
    across shard counts and interleaved mutations); a single-store
    ``PolicyDecisionPoint.reference()`` remains the reference mode.
    Placement belongs to the store: construct the
    :class:`ShardedPolicyStore` with the shard count.

    Concurrency: the scatter path is thread-safe (single-flight plus
    the store's mutation lock).  Each shard PDP is serial state — drive
    a given shard from one thread, exactly as a one-process-per-shard
    deployment (:class:`~repro.xacml.sharding.pool.ProcessShardPool`)
    does naturally.
    """

    def __init__(
        self,
        store: ShardedPolicyStore,
        combining: str = "first-applicable",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        super().__init__(store, combining, cache_size)
        self.shard_pdps: List[PolicyDecisionPoint] = [
            PolicyDecisionPoint(shard, combining, cache_size=cache_size)
            for shard in store.shards
        ]

    @ShardRouter.combining.setter
    def combining(self, name: str) -> None:
        # A shard PDP's setter flushes its decision cache, and
        # set_combining flushes the scatter cache.
        self._combining = name
        for pdp in self.shard_pdps:
            pdp.combining = name
        self.scatter.set_combining(name)

    def _evaluate_routed(self, requests, per_shard, responses, merge_scatter) -> None:
        for shard_id, indices in per_shard.items():
            pdp = self.shard_pdps[shard_id]
            for index in indices:
                responses[index] = pdp.evaluate(requests[index])
        merge_scatter()

    def _shard_cache_stats(self) -> List[dict]:
        return [pdp.cache_stats() for pdp in self.shard_pdps]

    def _flush_shard_caches(self) -> None:
        for pdp in self.shard_pdps:
            pdp.flush_cache()

    def detach(self) -> None:
        """Unregister every shard PDP and the scatter cache; drop caches."""
        for pdp in self.shard_pdps:
            pdp.detach()
        self.scatter.detach()

    def __repr__(self) -> str:
        return (
            f"ShardedPDP(shards={self.n_shards}, "
            f"policies={len(self.store)}, combining={self._combining!r})"
        )
