"""Sharded policy store and PDP with coherent cross-shard invalidation.

One XACML+ instance evaluates requests as fast as the hardware allows
(indexed candidate selection, decision caching); scaling past one
instance means partitioning the policy population so independent
instances each own a slice of the decision work.  This module provides
the partitioned analogues of :class:`~repro.xacml.store.PolicyStore` and
:class:`~repro.xacml.pdp.PolicyDecisionPoint` — the unsharded pair
survives unchanged as the reference mode for differential testing
(``PolicyDecisionPoint.reference()`` over a single store; the sharding
equivalence harness in ``tests/properties`` pins the two bit-identical).

**Partitioning.**  Placement is pluggable (:class:`PartitionStrategy`).
The default :class:`ResourceKeyPartitioner` hash-partitions policies by
the literal resource-id values their target can match — the *candidate
keys* the PR 1 target index extracts (``string-equal`` on the standard
resource-id attribute).  A policy whose keyed category is a wildcard or
carries any non-indexable alternative (regex matches, non-standard
attributes) over-approximates to *every* shard, exactly mirroring the
index's wildcard-bucket fallback; a multi-literal target is placed on
each literal's shard.  :class:`SubjectKeyPartitioner` applies the same
rule to subject-id keys — the right axis for subject-heavy populations
(the Table-3/zipf workloads), whose resource targets are often wildcards
and would otherwise replicate everywhere and degenerate every request to
a scatter.  :class:`CompositeKeyPartitioner` picks per policy: resource
keys when the resource category is literal, else subject keys, else full
replication — and routes requests over exactly the dimensions the
current population actually uses.  The hash is :func:`zlib.crc32` —
stable across processes, unlike ``hash(str)``, so placement (and
therefore benchmark shard balance) is reproducible, and a worker process
agrees with its parent about who owns what.

**Routing.**  The placement rule yields the routing invariant: every
policy whose target could match a request lives on every shard the
strategy routes that request to.  A request routing to a single shard —
the overwhelmingly common shape — is answered entirely by that shard's
PDP (its index, its decision cache).  A request with no value in any
partitioned dimension can only match fully-replicated policies, so any
one shard (shard 0) answers it.  Requests spanning shards take the
*scatter* path: candidates are gathered from each relevant shard,
de-duplicated (wildcard replicas appear once per shard) and re-ordered
by global load sequence, then combined through the same
:func:`repro.xacml.pdp.decide` step as everything else.

**Scatter caching and single-flight.**  The scatter path keeps its own
:class:`~repro.xacml.pdp.DecisionCache` — an LRU keyed by the full
request fingerprint, bucketed by the candidate policy ids that produced
each decision and invalidated through the :class:`InvalidationBus`
(``removed``/``updated`` evict the policy's bucket — updates also probe
for newly-matching entries — and ``loaded`` flushes wholesale, exactly
the per-store discipline).  Concurrent identical scatter requests are
de-duplicated *single-flight*: one thread gathers and merges, the rest
wait on the published result.  Coherence under concurrency comes from a
version stamp: every bus event bumps a version, a merge records the
version it started under, and a merge that an event overlapped is
returned to its own (concurrent) caller but never cached and never
handed to waiters — a waiter that joined after the mutation retries
against the post-mutation store, so a completed mutation is never
masked by an in-flight merge.

**Why single-shard routing is exact.**  Shard stores are loaded in
global event order with their global sequence numbers pinned
(:meth:`PolicyStore.load`'s ``sequence`` parameter), so a shard's
candidate list is the global candidate list restricted to policies that
can plausibly match the request — and the built-in combining algorithms
ignore NotApplicable policies, the same argument that makes the PR 1
target index sound.  Pinning matters on update: a new policy version
whose keys move it onto a different shard arrives there as a
shard-local *load* but keeps its original global position, matching the
single store's update-in-place semantics.

**Invalidation.**  Shard-local coherence is free: each shard is a full
:class:`PolicyStore`, so its index and its PDP's per-policy decision
cache react to the shard-local loaded/updated/removed events exactly as
in the single-instance engine (a migrating update decomposes into
``removed`` on shards the policy left, ``updated`` where it stayed and
``loaded`` — a conservative full flush — where it arrived).  Cross-shard
coherence flows through the :class:`InvalidationBus`: every logical
store event is published exactly once (never once per replica) to
subscribers that span shards — query-graph revocation, audit trails,
the proxy handle cache and the scatter decision cache.  The bus exposes
the same ``add_listener`` contract as ``PolicyStore``, so every
existing store observer works unchanged against a sharded deployment.
Shard-*level* observers (:meth:`ShardedPolicyStore.add_shard_listener`)
additionally see each per-replica operation with its pinned sequence —
the feed a :class:`ProcessShardPool` mirrors into worker processes.

**Worker processes.**  :class:`ProcessShardPool` runs each shard's
indexed+cached PDP on a real ``multiprocessing`` worker: one process
per shard, a command/response queue pair per worker, routed requests
shipped in batches and evaluated by the worker's own
:class:`PolicyDecisionPoint` over a mirrored shard store.  Mutations
fan out synchronously through the shard-listener feed (the store
mutation does not return until every affected worker has applied and
acknowledged its shard-local operation), so worker caches invalidate
coherently; scatter requests are merged parent-side through the same
cached single-flight path as the in-process engine.  The pool exists so
``benchmarks/bench_pdp_sharding.py`` can *measure* multi-core scale-out
wall-clock instead of assuming it via the makespan model, and so a
concurrent serving front-end (:mod:`repro.serving`) can fan request
work across cores.

**Multi-driver protocol.**  The pool is safe to drive from many
threads at once.  Every command a driver sends carries a *tag* —
``(driver_id, sequence)``, where each driver thread is lazily assigned
its own id — and every worker response echoes the tag of the command
that produced it.  A single dispatcher thread per shard drains that
shard's response queue and completes the matching
:class:`_PendingCall`, so two drivers' interleaved batches can never
be cross-matched: a response resolves exactly the call that registered
its tag, and a response whose tag is no longer registered (its caller
timed out and gave up) is dropped on the floor.  Each worker remains
internally serial, like a real one-process-per-shard deployment;
concurrency comes from interleaving *batches* of different drivers in
the worker's command queue.

**Supervision and self-healing.**  A worker failure is *contained*,
never pool-fatal (PR 6 poisoned the whole pool on any worker death;
a serving stack cannot afford that).  The shard's dispatcher detects
the dead process within a poll interval, fails only *that shard's*
in-flight commands with a retryable
:class:`~repro.errors.ShardUnavailableError`, and hands the shard to
the supervisor, which — after an exponential restart backoff — rebuilds
the worker from authoritative parent state: a consistent snapshot of
the shard's :class:`PolicyStore` replica (policies *with their pinned
global load sequences*) taken under the store's mutation lock, plus a
catch-up replay of every shard-level operation that arrived while the
worker was down or restarting.  Mutations therefore never block on a
dead shard (they queue for catch-up and return), and the rebuilt
worker is bit-identical to a worker that observed every event live —
the chaos differential suite pins decisions *through* crashes.

Restarts are budgeted: at most ``max_restarts`` within
``restart_window`` seconds; a shard that exhausts the budget is
declared **degraded** and stops being respawned (``revive()`` re-arms
it).  While a shard is down, restarting, or degraded, its traffic
follows the ``on_unavailable`` policy: ``"fallback"`` (the default)
answers from a parent-side, cache-less indexed PDP over the same
authoritative shard store — decision-identical, serialised behind the
store's mutation lock — while ``"error"`` surfaces the typed
:class:`~repro.errors.ShardUnavailableError` for clients to retry
(``retryable=False`` once degraded).  Healthy shards never notice:
their workers, dispatchers and caches are untouched by a neighbour's
crash-restart cycle.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as pyqueue
import threading
import time
import zlib
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import PolicyStoreError, ShardUnavailableError
from repro.xacml.attributes import RESOURCE_ID, SUBJECT_ID, AttributeCategory
from repro.xacml.index import _category_keys
from repro.xacml.pdp import (
    DEFAULT_CACHE_SIZE,
    DecisionCache,
    PolicyDecisionPoint,
    decide,
)
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.response import Response
from repro.xacml.store import ChangeListener, PolicyStore

logger = logging.getLogger(__name__)


def shard_of(key: str, n_shards: int) -> int:
    """The shard owning routing key *key* — stable across processes."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


# -- partitioning strategies ---------------------------------------------------------

class PartitionStrategy:
    """Decides where policies live and which shards a request must visit.

    The contract both sides must uphold together: *every policy whose
    target could match a request is placed on at least one shard that
    ``shards_for_request`` returns for it* (replicating to all shards is
    always a sound fallback).  Placement must be deterministic and
    process-stable so parent and worker processes agree.

    ``policy_placed`` / ``policy_removed`` are lifecycle hooks the store
    calls after each logical mutation; stateless strategies ignore them,
    the composite uses them to track which dimensions the population
    actually occupies.
    """

    name = "base"

    def shards_for_policy(self, policy: Policy, n_shards: int) -> FrozenSet[int]:
        raise NotImplementedError

    def shards_for_request(self, request: Request, n_shards: int) -> Tuple[int, ...]:
        raise NotImplementedError

    def policy_placed(self, policy: Policy) -> None:
        pass

    def policy_removed(self, policy: Policy) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _KeyedPartitioner(PartitionStrategy):
    """Hash-partitioning on one indexed category's literal keys."""

    #: Overridden per subclass: (AttributeCategory, standard attribute id).
    category: AttributeCategory
    attribute_id: str

    def _policy_keys(self, policy: Policy) -> Optional[FrozenSet[str]]:
        """Literal keys of the partitioned category, or None (wildcard)."""
        alternatives = (
            policy.target.resources
            if self.category is AttributeCategory.RESOURCE
            else policy.target.subjects
        )
        keys = _category_keys(alternatives, self.category, self.attribute_id)
        return None if keys is None else frozenset(keys)

    def shards_for_policy(self, policy: Policy, n_shards: int) -> FrozenSet[int]:
        keys = self._policy_keys(policy)
        if keys is None:
            return frozenset(range(n_shards))
        return frozenset(shard_of(key, n_shards) for key in keys)

    def shards_for_request(self, request: Request, n_shards: int) -> Tuple[int, ...]:
        values = request.values_of(self.category, self.attribute_id)
        if not values:
            # Only fully-replicated policies can match; shard 0 is as
            # authoritative as any.
            return (0,)
        return tuple(
            sorted({shard_of(str(value.value), n_shards) for value in values})
        )


class ResourceKeyPartitioner(_KeyedPartitioner):
    """Partition by the target's literal resource-id keys (the default)."""

    name = "resource"
    category = AttributeCategory.RESOURCE
    attribute_id = RESOURCE_ID


class SubjectKeyPartitioner(_KeyedPartitioner):
    """Partition by the target's literal subject-id keys.

    The right axis when policies are per-subject grants over wildcard
    resources (the paper's Table 3 shape): under resource keys every
    such policy replicates everywhere and every request degenerates to
    a scatter; under subject keys they spread and requests route.
    """

    name = "subject"
    category = AttributeCategory.SUBJECT
    attribute_id = SUBJECT_ID


class CompositeKeyPartitioner(PartitionStrategy):
    """Per-policy dimension choice: resource keys when literal, else
    subject keys, else full replication.

    Routing visits, for each dimension the *current population actually
    uses*, the shards the request's values of that dimension hash to —
    so a homogeneous population routes single-shard exactly like the
    matching single-dimension strategy, and a mixed population pays a
    (at most two-shard) scatter only where both dimensions are live.
    The population counts are maintained through the store's
    ``policy_placed`` / ``policy_removed`` hooks; count transitions only
    ever *widen* routing while the policies that required the extra
    dimension exist, so shard-local decision caches stay coherent (a
    request is answered by one shard's PDP only while that shard
    provably holds every policy that could match it).
    """

    name = "composite"

    def __init__(self):
        self._resource = ResourceKeyPartitioner()
        self._subject = SubjectKeyPartitioner()
        #: Live policy count per partitioned dimension.
        self._counts = {"resource": 0, "subject": 0}

    def _dimension(self, policy: Policy) -> Optional[str]:
        if self._resource._policy_keys(policy) is not None:
            return "resource"
        if self._subject._policy_keys(policy) is not None:
            return "subject"
        return None

    def shards_for_policy(self, policy: Policy, n_shards: int) -> FrozenSet[int]:
        dimension = self._dimension(policy)
        if dimension == "resource":
            return self._resource.shards_for_policy(policy, n_shards)
        if dimension == "subject":
            return self._subject.shards_for_policy(policy, n_shards)
        return frozenset(range(n_shards))

    def shards_for_request(self, request: Request, n_shards: int) -> Tuple[int, ...]:
        shards = set()
        if self._counts["resource"]:
            for value in request.values_of(AttributeCategory.RESOURCE, RESOURCE_ID):
                shards.add(shard_of(str(value.value), n_shards))
        if self._counts["subject"]:
            for value in request.values_of(AttributeCategory.SUBJECT, SUBJECT_ID):
                shards.add(shard_of(str(value.value), n_shards))
        if not shards:
            return (0,)
        return tuple(sorted(shards))

    def policy_placed(self, policy: Policy) -> None:
        dimension = self._dimension(policy)
        if dimension is not None:
            self._counts[dimension] += 1

    def policy_removed(self, policy: Policy) -> None:
        dimension = self._dimension(policy)
        if dimension is not None:
            self._counts[dimension] -= 1

    def stats(self) -> Dict[str, int]:
        return dict(self._counts)


#: Registry of named strategies for configuration surfaces
#: (``XacmlPlusInstance(pdp_partitioner="subject")`` and friends).
PARTITIONERS: Dict[str, Callable[[], PartitionStrategy]] = {
    "resource": ResourceKeyPartitioner,
    "subject": SubjectKeyPartitioner,
    "composite": CompositeKeyPartitioner,
}


def make_partitioner(
    spec: Union[None, str, PartitionStrategy]
) -> PartitionStrategy:
    """Resolve a strategy instance, name, or None (→ resource default)."""
    if spec is None:
        return ResourceKeyPartitioner()
    if isinstance(spec, PartitionStrategy):
        return spec
    try:
        return PARTITIONERS[spec]()
    except KeyError:
        raise PolicyStoreError(
            f"unknown partitioner {spec!r}; known: {sorted(PARTITIONERS)}"
        ) from None


class InvalidationBus:
    """Fans logical policy-store events to cross-shard subscribers.

    Presents the :class:`~repro.xacml.store.PolicyStore` listener
    contract (``add_listener`` / ``remove_listener``, events in
    {"loaded", "updated", "removed"}) over a sharded store: one publish
    per *logical* event, after every shard replica has been brought up
    to date, in subscription order.  Query-graph managers, audit trails
    and proxy handle caches subscribe here exactly as they would to a
    single store.
    """

    def __init__(self):
        self._listeners: List[ChangeListener] = []  # guarded by: owner
        #: Logical events published (for monitoring and tests).
        self.published = 0  # guarded by: owner
        #: Listener invocations that raised (contained, see publish).
        self.listener_failures = 0  # guarded by: owner

    def add_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        """Unregister a listener; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # PolicyStore-style aliases so bus-aware and store-aware code can
    # subscribe through one name.
    subscribe = add_listener
    unsubscribe = remove_listener

    def publish(self, event: str, policy: Policy) -> None:
        """Deliver one logical event to every subscriber.

        Per-listener exceptions are contained: a raising subscriber is
        logged and counted, and delivery continues to the remaining
        subscribers — one broken observer (a half-torn-down proxy
        cache, a buggy audit hook) must never leave the others with a
        stale view of a mutation the store has already applied.
        """
        self.published += 1
        for listener in list(self._listeners):
            try:
                listener(event, policy)
            except Exception:
                self.listener_failures += 1
                logger.exception(
                    "invalidation listener %r failed on %r(%s); "
                    "continuing delivery", listener, event, policy.policy_id,
                )


#: Shard-level observers: (shard_id, op, payload, sequence) with op in
#: {"load", "update", "remove"}; payload is the Policy for load/update
#: and the policy id for remove; sequence is pinned for loads only.
ShardListener = Callable[[int, str, object, Optional[int]], None]


class ShardedPolicyStore:
    """N :class:`PolicyStore` shards behind one logical store facade.

    Drop-in for the places a single store is observed or mutated —
    ``load`` / ``update`` / ``remove`` / ``get`` / ``policies`` /
    ``policies_for`` / ``add_listener`` all keep their single-store
    signatures and semantics; listeners are served by the
    :class:`InvalidationBus` (one event per logical mutation).  Each
    shard store keeps its own PR 1 target index, so per-shard candidate
    selection works exactly as in the single-instance engine.

    Mutations and the cross-shard candidate merge are serialised behind
    one lock, so a concurrent scatter evaluation never observes a
    half-migrated replica set; single-shard reads stay lock-free (each
    shard is driven serially, in-process or by its worker).
    """

    def __init__(
        self,
        n_shards: int,
        partitioner: Union[None, str, PartitionStrategy] = None,
    ):
        if n_shards <= 0:
            raise PolicyStoreError(f"shard count must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.partitioner = make_partitioner(partitioner)
        self.shards: List[PolicyStore] = [PolicyStore() for _ in range(n_shards)]
        self.bus = InvalidationBus()
        #: Logical view: id → policy, in load order (updates keep position).
        self._policies: Dict[str, Policy] = {}  # guarded by: self._mutation_lock
        #: policy id → shards holding a replica.
        self._placement: Dict[str, FrozenSet[int]] = {}  # guarded by: self._mutation_lock
        #: policy id → global load sequence (updates keep the original).
        self._sequence: Dict[str, int] = {}  # guarded by: self._mutation_lock
        self._next_sequence = 0  # guarded by: self._mutation_lock
        #: Policies currently replicated to every shard (wildcard /
        #: non-indexable targets under the strategy) — a balance metric.
        self.replicated = 0  # guarded by: self._mutation_lock
        self._shard_listeners: List[ShardListener] = []  # guarded by: owner
        self._mutation_lock = threading.Lock()

    # -- placement ---------------------------------------------------------------

    def _shards_for_policy(self, policy: Policy) -> FrozenSet[int]:
        """The shards that must hold *policy* (all, for wildcards)."""
        return self.partitioner.shards_for_policy(policy, self.n_shards)

    def shards_for_request(self, request: Request) -> Tuple[int, ...]:
        """The shards whose policies could match *request*, ascending.

        A request with no value in any partitioned dimension can only
        match fully-replicated policies, which every shard holds — any
        single shard is authoritative, so shard 0 is returned.
        """
        return self.partitioner.shards_for_request(request, self.n_shards)

    def placement_of(self, policy_id: str) -> FrozenSet[int]:
        """The shards holding *policy_id* (empty frozenset if unknown)."""
        return self._placement.get(policy_id, frozenset())

    def sequence_of(self, policy_id: str) -> int:
        """Global load-order position of *policy_id*."""
        return self._sequence[policy_id]

    # -- listeners ---------------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        self.bus.add_listener(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        self.bus.remove_listener(listener)

    def add_shard_listener(self, listener: ShardListener) -> None:
        """Observe every per-replica operation (see :data:`ShardListener`).

        Shard listeners fire *before* the logical bus event, once per
        affected shard, after the whole mutation has been applied
        in-process (every shard store and the logical bookkeeping) —
        the replication feed a worker pool mirrors.  A listener that
        raises does not unwind the applied mutation: the bus event
        still goes out, then the failure propagates to the mutator.
        """
        self._shard_listeners.append(listener)

    def remove_shard_listener(self, listener: ShardListener) -> None:
        try:
            self._shard_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_shard(
        self, shard_id: int, op: str, payload, sequence: Optional[int] = None
    ) -> None:
        for listener in list(self._shard_listeners):
            listener(shard_id, op, payload, sequence)

    # -- mutation ----------------------------------------------------------------

    def _finish_mutation(self, shard_ops, event: str, policy: Policy) -> None:
        """Fan a completed mutation out: shard listeners, then the bus.

        Runs only after the in-process shard stores *and* the logical
        bookkeeping are fully applied, so a listener that fails (e.g. a
        dead worker mirror) can never leave this store half-mutated —
        and the logical bus event still reaches in-process subscribers
        (scatter cache, proxy, graph revocation), keeping them coherent
        with the state that was in fact applied, before the listener's
        failure propagates to the mutator.
        """
        try:
            for shard_id, op, payload, sequence in shard_ops:
                self._notify_shard(shard_id, op, payload, sequence)
        finally:
            self.bus.publish(event, policy)

    def load(self, policy: Policy) -> None:
        """Load a new policy onto its owning shard(s)."""
        if policy.policy_id in self._policies:
            raise PolicyStoreError(f"policy {policy.policy_id!r} is already loaded")
        with self._mutation_lock:
            shard_ids = self._shards_for_policy(policy)
            sequence = self._next_sequence
            self._next_sequence += 1
            shard_ops = []
            for shard_id in sorted(shard_ids):
                self.shards[shard_id].load(policy, sequence=sequence)
                shard_ops.append((shard_id, "load", policy, sequence))
            self._policies[policy.policy_id] = policy
            self._placement[policy.policy_id] = shard_ids
            self._sequence[policy.policy_id] = sequence
            if len(shard_ids) == self.n_shards:
                self.replicated += 1
            self.partitioner.policy_placed(policy)
            self._finish_mutation(shard_ops, "loaded", policy)

    def update(self, policy: Policy) -> None:
        """Replace a loaded policy, migrating replicas as its keys move.

        Decomposes into shard-local events — ``updated`` on shards in
        both placements, ``removed`` where the new version no longer
        belongs, ``loaded`` (with the original global sequence pinned)
        where it newly belongs — then publishes one logical ``updated``.
        """
        if policy.policy_id not in self._policies:
            raise PolicyStoreError(f"policy {policy.policy_id!r} is not loaded")
        with self._mutation_lock:
            old_policy = self._policies[policy.policy_id]
            old_shards = self._placement[policy.policy_id]
            new_shards = self._shards_for_policy(policy)
            sequence = self._sequence[policy.policy_id]
            shard_ops = []
            for shard_id in sorted(old_shards - new_shards):
                self.shards[shard_id].remove(policy.policy_id)
                shard_ops.append((shard_id, "remove", policy.policy_id, None))
            for shard_id in sorted(old_shards & new_shards):
                self.shards[shard_id].update(policy)
                shard_ops.append((shard_id, "update", policy, None))
            for shard_id in sorted(new_shards - old_shards):
                self.shards[shard_id].load(policy, sequence=sequence)
                shard_ops.append((shard_id, "load", policy, sequence))
            self._policies[policy.policy_id] = policy
            self._placement[policy.policy_id] = new_shards
            if len(old_shards) == self.n_shards and len(new_shards) < self.n_shards:
                self.replicated -= 1
            elif len(old_shards) < self.n_shards and len(new_shards) == self.n_shards:
                self.replicated += 1
            self.partitioner.policy_removed(old_policy)
            self.partitioner.policy_placed(policy)
            self._finish_mutation(shard_ops, "updated", policy)

    def remove(self, policy_id: str) -> Policy:
        if policy_id not in self._policies:
            raise PolicyStoreError(f"policy {policy_id!r} is not loaded")
        with self._mutation_lock:
            shard_ids = self._placement.pop(policy_id)
            shard_ops = []
            for shard_id in sorted(shard_ids):
                self.shards[shard_id].remove(policy_id)
                shard_ops.append((shard_id, "remove", policy_id, None))
            policy = self._policies.pop(policy_id)
            self._sequence.pop(policy_id, None)
            if len(shard_ids) == self.n_shards:
                self.replicated -= 1
            self.partitioner.policy_removed(policy)
            self._finish_mutation(shard_ops, "removed", policy)
            return policy

    # -- lookup ------------------------------------------------------------------

    def get(self, policy_id: str) -> Optional[Policy]:
        return self._policies.get(policy_id)

    def policies(self) -> List[Policy]:
        """All loaded policies, in global load order."""
        return list(self._policies.values())

    def policies_for(self, request: Request) -> List[Policy]:
        """Plausibly applicable policies, in global load order.

        Gathers each relevant shard's indexed candidates, de-duplicates
        replicas and restores global order — the scatter-path analogue
        of :meth:`PolicyStore.policies_for`.
        """
        shard_ids = self.shards_for_request(request)
        if len(shard_ids) == 1:
            return self.shards[shard_ids[0]].policies_for(request)
        with self._mutation_lock:
            merged: Dict[str, Policy] = {}
            for shard_id in shard_ids:
                for policy in self.shards[shard_id].policies_for(request):
                    merged.setdefault(policy.policy_id, policy)
            sequence = self._sequence
            return sorted(merged.values(), key=lambda p: sequence[p.policy_id])

    def snapshot_shard(
        self, shard_id: int, and_then: Optional[Callable[[], None]] = None
    ) -> List[Tuple[Policy, int]]:
        """A consistent ``[(policy, pinned_sequence), ...]`` snapshot of
        one shard replica, taken under the mutation lock.

        The supervisor rebuilds a crashed worker from this.  *and_then*
        (if given) runs under the same lock, after the snapshot is
        built: because shard-level fan-out also runs under this lock,
        no mirror operation can be in flight here, so a supervisor that
        clears its catch-up queue in *and_then* is left with exactly
        the operations *not* already reflected in the snapshot.
        """
        with self._mutation_lock:
            snapshot = [
                (policy, self._sequence[policy.policy_id])
                for policy in self.shards[shard_id].policies()
            ]
            if and_then is not None:
                and_then()
            return snapshot

    def stats(self) -> Dict[str, object]:
        """Placement balance and bus counters, for monitoring and tests."""
        return {
            "n_shards": self.n_shards,
            "partitioner": self.partitioner.name,
            "policies": len(self._policies),
            "replicated": self.replicated,
            "per_shard": [len(shard) for shard in self.shards],
            "events_published": self.bus.published,
        }

    def __contains__(self, policy_id: str) -> bool:
        return policy_id in self._policies

    def __len__(self) -> int:
        return len(self._policies)

    def __repr__(self) -> str:
        return (
            f"ShardedPolicyStore(shards={self.n_shards}, "
            f"partitioner={self.partitioner.name!r}, "
            f"policies={len(self._policies)}, replicated={self.replicated})"
        )


# -- the scatter path ----------------------------------------------------------------

class _ScatterCall:
    """One in-flight scatter merge, shared by its leader and waiters."""

    __slots__ = ("done", "version", "response", "stale")

    def __init__(self, version: int):
        self.done = threading.Event()
        #: Invalidation version the merge started under.
        self.version = version
        self.response: Optional[Response] = None
        #: True until the leader publishes a merge no event overlapped.
        self.stale = True


class ScatterEvaluator:
    """Cached, single-flight evaluation of shard-spanning requests.

    See the module docstring (*Scatter caching and single-flight*) for
    the coherence argument.  ``cache_size=0`` disables both the cache
    and the single-flight machinery, leaving the bare gather-and-merge
    path (the PR 4 behaviour the benchmark compares against).
    """

    def __init__(self, store: ShardedPolicyStore, combining: str, cache_size: int):
        self.store = store
        self.combining = combining
        self.cache = DecisionCache(cache_size)
        self.enabled = cache_size > 0
        self._lock = threading.Lock()
        self._inflight: Dict[tuple, _ScatterCall] = {}  # guarded by: self._lock
        #: Bumped on every bus event; stamps in-flight merges.
        self._version = 0  # guarded by: self._lock
        #: Gather+merge evaluations actually performed.
        self.merges = 0  # guarded by: self._lock
        #: Waiters served by a concurrent leader's merge.
        self.coalesced = 0  # guarded by: self._lock
        #: Waiters that re-evaluated because an invalidation overlapped.
        self.retries = 0  # guarded by: self._lock
        if self.enabled:
            store.bus.add_listener(self._on_bus_event)

    def _on_bus_event(self, event: str, policy) -> None:
        with self._lock:
            self._version += 1
            self.cache.on_store_event(event, policy)

    def set_combining(self, combining: str) -> None:
        with self._lock:
            self.combining = combining
            self._version += 1
            if self.enabled:
                self.cache.flush()

    def detach(self) -> None:
        """Unsubscribe from the bus and drop every cached decision."""
        if self.enabled:
            self.store.bus.remove_listener(self._on_bus_event)
        with self._lock:
            self.cache.entries.clear()
            self.cache.buckets.clear()

    def flush(self) -> None:
        """Cold-start the scatter cache (counted as a full flush)."""
        with self._lock:
            self.cache.flush()

    def evaluate(self, request: Request) -> Response:
        if not self.enabled:
            with self._lock:
                self.merges += 1
            return decide(self.store.policies_for(request), request, self.combining)
        key = request.fingerprint()
        while True:
            with self._lock:
                response = self.cache.get(key)
                if response is not None:
                    return response
                call = self._inflight.get(key)
                if call is None:
                    call = _ScatterCall(self._version)
                    self._inflight[key] = call
                    break  # this thread leads the merge
                self.coalesced += 1
            call.done.wait()
            if not call.stale:
                return call.response
            # An invalidation (or a leader failure) overlapped the merge:
            # this waiter may postdate the mutation, so it must re-read.
            with self._lock:
                self.retries += 1
        try:
            candidates = self.store.policies_for(request)
            response = decide(candidates, request, self.combining)
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            call.done.set()  # waiters observe stale=True and retry
            raise
        with self._lock:
            self.merges += 1
            call.response = response
            call.stale = call.version != self._version
            if not call.stale:
                self.cache.put(
                    key,
                    response,
                    request,
                    frozenset(p.policy_id for p in candidates),
                )
            self._inflight.pop(key, None)
        call.done.set()
        return response

    def stats(self) -> dict:
        """A fresh snapshot: cache counters plus single-flight counters."""
        with self._lock:
            snapshot = self.cache.stats()
            snapshot["merges"] = self.merges
            snapshot["coalesced"] = self.coalesced
            snapshot["retries"] = self.retries
            return snapshot


def _aggregate_cache_stats(shard_stats, scatter_stats, routed, scattered) -> dict:
    """Fold per-shard cache snapshots + scatter counters into one pure
    snapshot — the single shape ``ShardedPDP.cache_stats`` and
    ``ProcessShardPool.cache_stats`` both report."""
    totals = {
        "entries": 0, "hits": 0, "misses": 0, "invalidations": 0,
        "full_flushes": 0, "targeted_evictions": 0,
    }
    for stats in shard_stats:
        for key in totals:
            totals[key] += stats[key]
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    for key, value in scatter_stats.items():
        totals[f"scatter_{key}"] = value
    totals["routed"] = routed
    totals["scattered"] = scattered
    totals["evaluations"] = routed + scattered
    return totals


class ShardedPDP:
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
    across partitioners, shard counts and interleaved mutations); a
    single-store ``PolicyDecisionPoint.reference()`` remains the
    reference mode.

    Concurrency: the scatter path is thread-safe (single-flight plus
    the store's mutation lock).  Each shard PDP is serial state — drive
    a given shard from one thread, exactly as a one-process-per-shard
    deployment (:class:`ProcessShardPool`) does naturally.
    """

    def __init__(
        self,
        store: Optional[ShardedPolicyStore] = None,
        combining: str = "first-applicable",
        n_shards: int = 4,
        cache_size: int = DEFAULT_CACHE_SIZE,
        scatter_cache_size: Optional[int] = None,
        partitioner: Union[None, str, PartitionStrategy] = None,
    ):
        if store is None:
            store = ShardedPolicyStore(n_shards, partitioner=partitioner)
        elif partitioner is not None:
            # Placement belongs to the store (policies are already laid
            # out by its strategy); silently ignoring a different one
            # here would leave the caller believing e.g. subject
            # routing is active while everything scatters.
            raise PolicyStoreError(
                "partitioner is set on ShardedPolicyStore; construct the "
                "store with the desired strategy instead of passing one "
                "to ShardedPDP alongside an existing store"
            )
        self.store = store
        self._combining = combining
        self.shard_pdps: List[PolicyDecisionPoint] = [
            PolicyDecisionPoint(shard, combining, cache_size=cache_size)
            for shard in self.store.shards
        ]
        if scatter_cache_size is None:
            scatter_cache_size = cache_size
        self.scatter = ScatterEvaluator(self.store, combining, scatter_cache_size)
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

    @combining.setter
    def combining(self, name: str) -> None:
        # Cached decisions are keyed by request fingerprint only, so a
        # combining change must drop them on every shard and in the
        # scatter cache.
        self._combining = name
        for pdp in self.shard_pdps:
            pdp.combining = name
            pdp.flush_cache()
        self.scatter.set_combining(name)

    def evaluate(self, request: Request) -> Response:
        shard_ids = self.store.shards_for_request(request)
        if len(shard_ids) == 1:
            with self._counter_lock:
                self.routed_evaluations += 1
            return self.shard_pdps[shard_ids[0]].evaluate(request)
        with self._counter_lock:
            self.scatter_evaluations += 1
        return self.scatter.evaluate(request)

    @property
    def evaluations(self) -> int:
        """Requests evaluated (routed + scattered), mirroring the PDP counter."""
        return self.routed_evaluations + self.scatter_evaluations

    def detach(self) -> None:
        """Unregister every shard PDP and the scatter cache; drop caches."""
        for pdp in self.shard_pdps:
            pdp.detach()
        self.scatter.detach()

    def flush_caches(self) -> None:
        """Cold-start every decision cache (shards + scatter)."""
        for pdp in self.shard_pdps:
            pdp.flush_cache()
        self.scatter.flush()

    def cache_stats(self) -> dict:
        """A pure snapshot: aggregated shard counters, scatter-cache
        counters (``scatter_*``) and the routing split.

        Built fresh on every call from the live per-shard and scatter
        snapshots — nothing here mutates or retains aggregation state,
        so repeated calls (and calls across pool close/re-register
        cycles) can never double-count.
        """
        return _aggregate_cache_stats(
            [pdp.cache_stats() for pdp in self.shard_pdps],
            self.scatter.stats(),
            self.routed_evaluations,
            self.scatter_evaluations,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedPDP(shards={self.n_shards}, "
            f"policies={len(self.store)}, combining={self._combining!r})"
        )


# -- multiprocess shard workers ------------------------------------------------------

def _shard_worker_main(
    shard_id: int,
    combining: str,
    cache_size: int,
    initial: Sequence[Tuple[Policy, int]],
    commands,
    results,
) -> None:
    """One shard's worker loop: a mirrored store + indexed/cached PDP.

    Runs in a child process.  Every command (except ``stop``) is a tuple
    ``(op, tag, *args)`` and produces exactly one message on *results* —
    ``("result", tag, payload)`` or ``("error", tag, detail)`` — so the
    parent's dispatcher can match responses to callers by tag no matter
    how many driver threads interleave commands.  Mutations replay the
    parent's shard-level feed, so the worker's store — and therefore its
    PDP's index and decision cache — tracks the parent shard exactly.
    """
    store = PolicyStore()
    for policy, sequence in initial:
        store.load(policy, sequence=sequence)
    pdp = PolicyDecisionPoint(store, combining, cache_size=cache_size)
    while True:
        message = commands.get()
        op = message[0]
        if op == "stop":
            break
        tag = message[1]
        try:
            if op == "eval":
                results.put(
                    ("result", tag, [pdp.evaluate(r) for r in message[2]])
                )
            elif op == "load":
                _, _, policy, sequence = message
                store.load(policy, sequence=sequence)
                results.put(("result", tag, policy.policy_id))
            elif op == "update":
                store.update(message[2])
                results.put(("result", tag, message[2].policy_id))
            elif op == "remove":
                store.remove(message[2])
                results.put(("result", tag, message[2]))
            elif op == "flush":
                pdp.flush_cache()
                results.put(("result", tag, None))
            elif op == "stats":
                results.put(("result", tag, pdp.cache_stats()))
            else:
                results.put(("error", tag, f"unknown opcode {op!r}"))
        except Exception as error:  # surface, don't kill the worker
            results.put(("error", tag, f"{type(error).__name__}: {error}"))


class _PendingCall:
    """One tagged command awaiting its worker response."""

    __slots__ = ("shard_id", "tag", "event", "value", "error")

    def __init__(self, shard_id: int, tag: Tuple[int, int]):
        self.shard_id = shard_id
        self.tag = tag
        self.event = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None

    def wait(self, timeout: float):
        """Block for the response; raises on worker error or timeout."""
        if not self.event.wait(timeout):
            raise PolicyStoreError(
                f"shard worker {self.shard_id} did not respond"
            )
        if self.error is not None:
            raise self.error
        return self.value


class _ShardRuntime:
    """One shard's live worker generation, owned by the supervisor.

    Every spawn gets *fresh* command/result queues and a fresh
    dispatcher thread, so stale messages from a dead generation can
    never be matched against the next one.  ``lock`` guards every
    field; the pool's lock order is ``runtime.lock`` →
    ``_pending_lock`` (never the reverse).
    """

    __slots__ = (
        "shard_id", "process", "commands", "results", "dispatcher",
        "status", "restarts", "restart_times", "catchup", "lock",
        "last_error", "restart_thread",
    )

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None  # guarded by: self.lock
        self.commands = None  # guarded by: self.lock
        self.results = None  # guarded by: self.lock
        self.dispatcher: Optional[threading.Thread] = None  # guarded by: self.lock
        #: ``"up"`` | ``"down"`` | ``"restarting"`` | ``"degraded"``.
        self.status = "up"  # guarded by: self.lock
        #: Completed (successful) restarts of this shard's worker.
        self.restarts = 0  # guarded by: self.lock
        #: Monotonic stamps of restart attempts inside the budget window.
        self.restart_times: List[float] = []  # guarded by: self.lock
        #: Shard ops that arrived while not ``up``: ``(op, payload,
        #: sequence)`` in arrival order, replayed before readmission.
        self.catchup: List[Tuple[str, object, Optional[int]]] = []  # guarded by: self.lock
        self.lock = threading.Lock()
        self.last_error: Optional[str] = None  # guarded by: self.lock
        self.restart_thread: Optional[threading.Thread] = None  # guarded by: self.lock


#: Zeroed per-shard cache stats, stood in for a shard that is down —
#: keeps :func:`_aggregate_cache_stats` totals well-defined while a
#: worker (whose counters died with it) is being rebuilt.
_ZERO_CACHE_STATS = {
    "entries": 0, "hits": 0, "misses": 0, "invalidations": 0,
    "full_flushes": 0, "targeted_evictions": 0,
}


class ProcessShardPool:
    """Shard PDPs on real ``multiprocessing`` workers, supervised.

    One process per shard, each running the worker loop above; routed
    requests ship to the owning worker (batched through
    :meth:`evaluate_many` so queue/pickle overhead amortises), scatter
    requests merge parent-side through the shared cached single-flight
    path.  Mutating the attached :class:`ShardedPolicyStore` fans the
    shard-level operations out synchronously — the mutation returns
    only after every affected *live* worker acknowledged, so no later
    evaluation can observe a pre-mutation worker cache.

    Safe to drive from many threads at once (see *Multi-driver
    protocol* in the module docstring): every command carries a
    ``(driver_id, sequence)`` tag and one dispatcher thread per worker
    generation routes responses back to the registered caller.

    A worker death is contained (see *Supervision and self-healing* in
    the module docstring): only that shard's in-flight commands fail —
    with :class:`~repro.errors.ShardUnavailableError`, retryable while
    the supervisor still has restart budget — and the worker is
    respawned from authoritative parent state.  While a shard is not
    ``up``, its routed traffic follows ``on_unavailable``:
    ``"fallback"`` answers decision-identically from a parent-side PDP
    over the same shard store; ``"error"`` raises the typed error for
    the caller (or a serving client) to retry.  Use as a context
    manager or call :meth:`close`.
    """

    #: ``evaluate`` waits on a worker: an event loop calls it from an
    #: executor thread (a driver); evaluators without this run inline.
    blocking = True

    #: Seconds to wait for any single worker response before declaring
    #: the worker dead.
    RESPONSE_TIMEOUT = 120.0

    #: Dispatcher poll interval — the cadence at which a dispatcher
    #: notices a stop request or a dead worker process.
    POLL_INTERVAL = 0.1

    def __init__(
        self,
        store: ShardedPolicyStore,
        combining: str = "first-applicable",
        cache_size: int = DEFAULT_CACHE_SIZE,
        scatter_cache_size: Optional[int] = None,
        batch_size: int = 256,
        start_method: Optional[str] = None,
        max_restarts: int = 5,
        restart_window: float = 60.0,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
        on_unavailable: str = "fallback",
        fault_injector=None,
    ):
        if on_unavailable not in ("fallback", "error"):
            raise PolicyStoreError(
                f"on_unavailable must be 'fallback' or 'error', "
                f"not {on_unavailable!r}"
            )
        self.store = store
        self._combining = combining
        self._cache_size = cache_size
        self.batch_size = max(1, batch_size)
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        self.on_unavailable = on_unavailable
        self._injector = fault_injector
        if scatter_cache_size is None:
            scatter_cache_size = cache_size
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            # fork skips re-pickling the initial policy population and
            # is the cheapest start on the platforms CI runs on.
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.scatter = ScatterEvaluator(store, combining, scatter_cache_size)
        self.routed_evaluations = 0  # guarded by: self._counter_lock
        self.scatter_evaluations = 0  # guarded by: self._counter_lock
        #: Requests answered by the parent-side fallback PDP while
        #: their shard was unavailable (counted into *routed* too, so
        #: ``evaluations == routed + scattered`` holds regardless).
        self.fallback_evaluations = 0  # guarded by: self._counter_lock
        #: Chunks refused with ShardUnavailableError (``"error"`` mode).
        self.unavailable_errors = 0  # guarded by: self._counter_lock
        #: Successful supervised worker restarts, pool-wide.
        self.worker_restarts = 0  # guarded by: self._counter_lock
        self._counter_lock = threading.Lock()
        #: Lazily-built cache-less fallback PDPs, one per shard.
        self._fallbacks: Dict[int, PolicyDecisionPoint] = {}  # guarded by: self._fallback_lock
        self._fallback_lock = threading.Lock()
        #: Tag bookkeeping: commands in flight, keyed by their
        #: (driver_id, sequence) tag; guarded by ``_pending_lock``.
        self._pending: Dict[Tuple[int, int], _PendingCall] = {}  # guarded by: self._pending_lock
        self._pending_lock = threading.Lock()
        #: Per-thread driver identity (lazily assigned ids + sequence
        #: counters) — the "per-driver batch tags" of the protocol.
        self._local = threading.local()
        self._driver_ids = 0  # guarded by: self._pending_lock
        self._closed = False  # guarded by: self._pending_lock
        self._stopping = False  # guarded by: self._pending_lock
        #: Set at close; interrupts any restart backoff sleep promptly.
        self._shutdown = threading.Event()
        self._runtimes = [
            _ShardRuntime(shard_id) for shard_id in range(store.n_shards)
        ]
        for runtime in self._runtimes:
            self._launch(runtime, store.snapshot_shard(runtime.shard_id))
        store.add_shard_listener(self._on_shard_op)

    # -- lifecycle --------------------------------------------------------------

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and detach from the store (idempotent,
        safe under concurrent double-close).

        Pending calls of every driver are failed (never left hanging),
        so concurrent drivers observe a closed pool as a prompt
        :class:`~repro.errors.PolicyStoreError`, not a timeout.
        Supervisor restart threads are interrupted mid-backoff and
        joined; a worker respawned in the race window is terminated by
        its own restart thread (which re-checks ``_closed`` after the
        launch), so no process outlives the pool.
        """
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
        self._shutdown.set()
        self.store.remove_shard_listener(self._on_shard_op)
        self.scatter.detach()
        self._fail_pending("the shard pool is closed")
        current = threading.current_thread()
        for runtime in self._runtimes:
            with runtime.lock:
                commands, results = runtime.commands, runtime.results
                process = runtime.process
                dispatcher = runtime.dispatcher
                restart_thread = runtime.restart_thread
            if commands is not None:
                try:
                    commands.put(("stop",))
                except (ValueError, OSError):
                    pass
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            for thread in (dispatcher, restart_thread):
                if thread is not None and thread is not current:
                    thread.join(timeout=5.0)
            for q in (commands, results):
                if q is None:
                    continue
                q.close()
                # The queues die with the pool; don't let their feeder
                # threads block interpreter shutdown on unflushed
                # buffers.
                q.cancel_join_thread()

    detach = close  # the name ``XacmlPlusInstance.attach_evaluator`` calls

    @property
    def n_shards(self) -> int:
        return self.store.n_shards

    @property
    def combining(self) -> str:
        return self._combining

    @property
    def evaluations(self) -> int:
        return self.routed_evaluations + self.scatter_evaluations

    # -- worker lifecycle -------------------------------------------------------

    def _launch(self, runtime: _ShardRuntime, initial) -> None:
        """Spawn one worker generation: process, queues, dispatcher."""
        commands, results = self._ctx.Queue(), self._ctx.Queue()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                runtime.shard_id, self._combining, self._cache_size,
                initial, commands, results,
            ),
            daemon=True,
            name=f"pdp-shard-{runtime.shard_id}",
        )
        process.start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(runtime, process, results),
            daemon=True,
            name=f"pdp-shard-dispatch-{runtime.shard_id}",
        )
        with runtime.lock:
            runtime.process = process
            runtime.commands = commands
            runtime.results = results
            runtime.dispatcher = dispatcher
        dispatcher.start()

    def _on_worker_death(self, runtime: _ShardRuntime, reason: str) -> None:
        """A dispatcher noticed its generation's process is gone.

        Fails only this shard's pending calls and (for a death out of
        ``up``) schedules the supervised restart.  A death while
        ``restarting`` — the fresh worker crashed during catch-up — is
        observed by the restart thread through the failed catch-up
        call, which reschedules itself; acting here too would race it.
        """
        with runtime.lock:
            if self._closed or runtime.status not in ("up", "restarting"):
                return
            schedule = runtime.status == "up"
            runtime.status = "down"
            runtime.last_error = reason
        logger.warning("shard %d worker died: %s", runtime.shard_id, reason)
        self._fail_shard_pending(runtime.shard_id, reason)
        if schedule:
            self._schedule_restart(runtime)

    def _schedule_restart(self, runtime: _ShardRuntime) -> None:
        """Arm one restart attempt, or declare the shard degraded.

        The budget is sliding-window: attempts older than
        ``restart_window`` seconds no longer count.  Backoff doubles
        per attempt within the window, capped at
        ``restart_backoff_cap``.
        """
        now = time.monotonic()
        with runtime.lock:
            if self._closed or runtime.status != "down":
                return
            runtime.restart_times = [
                stamp for stamp in runtime.restart_times
                if now - stamp < self.restart_window
            ]
            if len(runtime.restart_times) >= self.max_restarts:
                runtime.status = "degraded"
                # The parent store is authoritative and the fallback
                # reads it live; queued catch-up is obsolete the moment
                # nothing will replay it.
                runtime.catchup.clear()
                runtime.restart_thread = None
                degraded = True
            else:
                runtime.restart_times.append(now)
                attempt = len(runtime.restart_times)
                backoff = min(
                    self.restart_backoff * (2 ** (attempt - 1)),
                    self.restart_backoff_cap,
                )
                thread = threading.Thread(
                    target=self._restart_worker,
                    args=(runtime, backoff),
                    daemon=True,
                    name=f"pdp-shard-supervise-{runtime.shard_id}",
                )
                runtime.restart_thread = thread
                degraded = False
        if degraded:
            logger.error(
                "shard %d exhausted its restart budget (%d in %.1fs); "
                "declared degraded (%s traffic policy)",
                runtime.shard_id, self.max_restarts, self.restart_window,
                self.on_unavailable,
            )
        else:
            thread.start()

    def _restart_worker(self, runtime: _ShardRuntime, backoff: float) -> None:
        """One supervised restart attempt (runs on its own thread).

        Backoff → consistent snapshot → fresh worker generation →
        catch-up replay → readmission.  The snapshot and the switch to
        ``restarting`` (which ends catch-up *queueing* for ops already
        in the snapshot) happen atomically under the store's mutation
        lock, so the snapshot plus the queued catch-up ops is exactly
        the shard's authoritative history — nothing lost, nothing
        applied twice.
        """
        if self._shutdown.wait(backoff) or self._closed:
            return

        def mark_restarting() -> None:
            with runtime.lock:
                runtime.catchup.clear()
                runtime.status = "restarting"

        try:
            initial = self.store.snapshot_shard(
                runtime.shard_id, and_then=mark_restarting
            )
        except Exception:
            logger.exception(
                "shard %d restart aborted: snapshot failed", runtime.shard_id
            )
            return
        # The dead generation's queues go with it; late stale messages
        # died with its dispatcher.
        with runtime.lock:
            stale = (runtime.commands, runtime.results)
        for q in stale:
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception as error:
                logger.debug("stale queue close failed: %s", error)
        try:
            self._launch(runtime, initial)
        except Exception as error:
            with runtime.lock:
                runtime.status = "down"
                runtime.last_error = f"respawn failed: {error}"
            self._schedule_restart(runtime)
            return
        if self._closed:
            # Lost the race with close(): it may have joined the old
            # process; this generation is ours to reap.
            with runtime.lock:
                process = runtime.process
            try:
                process.terminate()
            except Exception as error:
                logger.debug("terminate after close race failed: %s", error)
            return
        # Catch-up replay: drain ops that arrived while down, then
        # readmit.  New ops may keep arriving (queued under the store
        # mutation lock) while we drain — the loop runs until the queue
        # is observed empty under the runtime lock.
        while True:
            with runtime.lock:
                if self._closed:
                    return
                if runtime.status == "down":
                    break  # the fresh worker died already
                if not runtime.catchup:
                    runtime.status = "up"
                    runtime.restarts += 1
                    with self._counter_lock:
                        self.worker_restarts += 1
                    logger.info(
                        "shard %d worker restarted (%d policies replayed, "
                        "restart #%d)",
                        runtime.shard_id, len(initial), runtime.restarts,
                    )
                    return
                op, payload, sequence = runtime.catchup.pop(0)
            try:
                if op == "load":
                    call = self._submit(
                        runtime.shard_id, "load", payload, sequence,
                        during_restart=True,
                    )
                else:
                    call = self._submit(
                        runtime.shard_id, op, payload, during_restart=True
                    )
                self._await(call)
            except ShardUnavailableError:
                break  # died mid catch-up; status is already "down"
            except PolicyStoreError as error:
                if self._closed:
                    return
                # The fresh replica rejected an authoritative op: it
                # cannot be trusted.  Kill this generation ourselves
                # (status already "down" ⇒ its dispatcher won't
                # double-schedule) and burn another budget slot.
                with runtime.lock:
                    runtime.status = "down"
                    runtime.last_error = f"catch-up {op} failed: {error}"
                    process = runtime.process
                try:
                    process.terminate()
                except Exception as terminate_error:
                    logger.debug(
                        "terminate after catch-up failure failed: %s",
                        terminate_error,
                    )
                break
        self._schedule_restart(runtime)

    def kill_worker(self, shard_id: int, reason: str = "killed") -> None:
        """Terminate one shard's live worker process (chaos aid).

        The supervisor observes the death within a poll interval and
        handles restart/degradation exactly as for a spontaneous crash.
        """
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            process = runtime.process
        if process is not None:
            try:
                process.terminate()
            except Exception as error:
                logger.debug("kill_worker terminate failed: %s", error)

    def revive(self, shard_id: int) -> None:
        """Re-arm a degraded shard: reset its budget and restart it.

        The revive itself is one explicit restart attempt outside the
        budget (so a ``max_restarts=0`` pool can still be revived by an
        operator); if the revived worker dies again, the sliding-window
        budget applies afresh.
        """
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            if self._closed:
                raise PolicyStoreError("the shard pool is closed")
            if runtime.status != "degraded":
                raise PolicyStoreError(
                    f"shard {shard_id} is {runtime.status}, not degraded"
                )
            runtime.status = "down"
            runtime.restart_times = []
            thread = threading.Thread(
                target=self._restart_worker,
                args=(runtime, 0.0),
                daemon=True,
                name=f"pdp-shard-supervise-{shard_id}",
            )
            runtime.restart_thread = thread
        thread.start()

    # -- worker protocol --------------------------------------------------------

    def _driver_tag(self) -> Tuple[int, int]:
        """The calling thread's next command tag.

        Each driver thread gets its own id on first use and a private
        monotonically increasing sequence, so tags are unique across the
        pool's lifetime without any cross-driver coordination beyond the
        one-time id assignment.
        """
        local = self._local
        driver_id = getattr(local, "driver_id", None)
        if driver_id is None:
            with self._pending_lock:
                driver_id = self._driver_ids
                self._driver_ids += 1
            local.driver_id = driver_id
            local.sequence = 0
        sequence = local.sequence
        local.sequence = sequence + 1
        return (driver_id, sequence)

    @property
    def drivers(self) -> int:
        """Distinct driver threads that have issued commands so far."""
        return self._driver_ids

    def _check_usable(self) -> None:
        if self._closed:
            raise PolicyStoreError("the shard pool is closed")

    def _unavailable(self, runtime: _ShardRuntime) -> ShardUnavailableError:
        """The typed error for *runtime*'s current (non-up) status.
        Callers hold ``runtime.lock``."""
        degraded = runtime.status == "degraded"
        return ShardUnavailableError(
            runtime.shard_id,
            runtime.last_error or f"worker is {runtime.status}",
            retryable=not degraded,
            degraded=degraded,
        )

    def _submit(
        self, shard_id: int, op: str, *args, during_restart: bool = False
    ) -> _PendingCall:
        """Register a pending call and ship its tagged command.

        The admission check, pending registration and command-queue
        capture happen atomically under the runtime lock, so a call
        can never be registered against a generation whose death was
        already handled: the death path flips ``status`` under the
        same lock *before* failing that shard's pending calls.
        """
        runtime = self._runtimes[shard_id]
        tag = self._driver_tag()
        call = _PendingCall(shard_id, tag)
        with runtime.lock:
            if self._closed:
                raise PolicyStoreError("the shard pool is closed")
            admissible = ("up", "restarting") if during_restart else ("up",)
            if runtime.status not in admissible:
                raise self._unavailable(runtime)
            commands = runtime.commands
            with self._pending_lock:
                self._pending[tag] = call
        if self._injector is not None:
            self._injector.on_command(self, shard_id, op)
        try:
            commands.put((op, tag, *args))
        except BaseException:
            with self._pending_lock:
                self._pending.pop(tag, None)
            raise
        return call

    def _await(self, call: _PendingCall):
        """Wait out one pending call; a timed-out tag is unregistered so
        the dispatcher drops its late response instead of completing a
        call nobody is waiting on."""
        try:
            return call.wait(self.RESPONSE_TIMEOUT)
        except PolicyStoreError:
            with self._pending_lock:
                self._pending.pop(call.tag, None)
            raise

    def _fail_pending(self, reason: str) -> None:
        """Fail every driver's pending calls promptly (pool teardown)."""
        with self._pending_lock:
            failed = list(self._pending.items())
            self._pending.clear()
        for _, call in failed:
            call.error = PolicyStoreError(reason)
            call.event.set()

    def _fail_shard_pending(self, shard_id: int, reason: str) -> None:
        """Fail only *shard_id*'s pending calls, with the retryable
        typed error — other shards' drivers are untouched."""
        with self._pending_lock:
            failed = [
                item for item in self._pending.items()
                if item[1].shard_id == shard_id
            ]
            for tag, _ in failed:
                del self._pending[tag]
        for _, call in failed:
            call.error = ShardUnavailableError(shard_id, reason)
            call.event.set()

    def _dispatch_loop(self, runtime: _ShardRuntime, process, results) -> None:
        """One worker generation's dispatcher: route responses to their
        pending tag.

        Also the liveness monitor for its generation — a worker that
        died without responding is detected within a poll interval and
        handed to the supervisor, so no driver ever waits out the full
        response timeout on a queue that cannot fill.  The dispatcher
        dies with its generation; the restart spawns a fresh one.
        """
        shard_id = runtime.shard_id
        while True:
            try:
                message = results.get(timeout=self.POLL_INTERVAL)
            except pyqueue.Empty:
                if self._stopping or self._closed:
                    return
                if not process.is_alive():
                    self._on_worker_death(
                        runtime,
                        f"shard worker {shard_id} died "
                        f"(exit code {process.exitcode})",
                    )
                    return
                continue
            except (OSError, ValueError, EOFError):
                return  # queue torn down under us: generation replaced
            kind, tag, payload = message
            with self._pending_lock:
                call = self._pending.pop(tag, None)
            if call is None:
                continue  # caller gave up on this tag; drop the response
            if kind == "error":
                call.error = PolicyStoreError(
                    f"shard worker {shard_id} failed on {tag!r}: {payload}"
                )
            else:
                call.value = payload
            call.event.set()

    def _on_shard_op(self, shard_id: int, op: str, payload, sequence) -> None:
        """Mirror one shard-level store operation into its worker.

        Runs under the store's mutation lock.  A shard that is down or
        restarting queues the op for catch-up replay and returns — a
        mutation never blocks on (or fails because of) a dead shard; a
        degraded shard drops it (the parent store stays authoritative
        and the fallback reads it live).  A *live* worker that rejects
        its mirrored op has a diverged replica and is killed — the
        supervised rebuild from parent state is the repair.  The store
        itself is never affected: it applied the mutation before
        notifying, and the bus event still goes out.
        """
        if self._closed:
            return
        if self._injector is not None:
            action = self._injector.on_mirror(self, shard_id, op)
            if action == "drop":
                # A dropped mirror leaves the worker's replica
                # unknowable; kill it and let supervision rebuild from
                # post-mutation parent state.
                self.kill_worker(
                    shard_id, reason="mirror dropped by fault injection"
                )
                return
        runtime = self._runtimes[shard_id]
        with runtime.lock:
            if runtime.status == "degraded":
                return
            if runtime.status != "up":
                runtime.catchup.append((op, payload, sequence))
                return
        try:
            if op == "load":
                call = self._submit(shard_id, "load", payload, sequence)
            else:  # "update" carries the policy, "remove" the policy id
                call = self._submit(shard_id, op, payload)
            self._await(call)
        except ShardUnavailableError:
            # The worker died under the mirror; harmless — the rebuild
            # snapshots the store *after* this mutation was applied.
            pass
        except PolicyStoreError as error:
            if self._closed:
                return
            self.kill_worker(
                shard_id, reason=f"worker rejected mirrored {op}: {error}"
            )

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, request: Request) -> Response:
        """Evaluate one request (round-trips to the owning worker)."""
        return self.evaluate_many([request])[0]

    def _evaluate_fallback(self, shard_id: int, chunk: List[Request]):
        """Answer a down shard's requests from the authoritative parent
        replica — decision-identical to the worker (same store, same
        index discipline, same combining), serialised behind the
        store's mutation lock so candidate selection never races a
        mutation.  Cache-less on purpose: no listener registration, no
        shared mutable cache state, safe from any driver thread."""
        with self._fallback_lock:
            pdp = self._fallbacks.get(shard_id)
            if pdp is None:
                pdp = PolicyDecisionPoint(
                    self.store.shards[shard_id], self._combining, cache_size=0
                )
                self._fallbacks[shard_id] = pdp
        with self.store._mutation_lock:
            responses = [pdp.evaluate(request) for request in chunk]
        with self._counter_lock:
            self.fallback_evaluations += len(chunk)
        return responses

    def evaluate_many(self, requests: Sequence[Request]) -> List[Response]:
        """Evaluate a batch: routed requests fan out to the workers in
        per-shard chunks (workers run in parallel), scatter requests
        merge parent-side while the workers chew.

        Callable from any number of driver threads concurrently; each
        call only ever waits on (and is completed by) its own tagged
        batches.  Chunks whose shard is unavailable — refused at
        submission or failed by a mid-flight worker death — follow the
        ``on_unavailable`` policy: answered by the parent-side fallback
        PDP, or surfaced as one ShardUnavailableError after every other
        chunk has been collected (never stranding results
        mid-protocol).
        """
        self._check_usable()
        responses: List[Optional[Response]] = [None] * len(requests)
        per_shard: List[List[int]] = [[] for _ in range(self.n_shards)]
        scatter_indices: List[int] = []
        for index, request in enumerate(requests):
            shard_ids = self.store.shards_for_request(request)
            if len(shard_ids) == 1:
                per_shard[shard_ids[0]].append(index)
            else:
                scatter_indices.append(index)
        # Ship every chunk before collecting anything: queue puts are
        # asynchronous (feeder threads), so all workers start promptly
        # and evaluate while the parent handles the scatter share.
        in_flight: List[Tuple[_PendingCall, List[int]]] = []
        unavailable: List[Tuple[int, List[int], ShardUnavailableError]] = []
        for shard_id, indices in enumerate(per_shard):
            for start in range(0, len(indices), self.batch_size):
                chunk = indices[start:start + self.batch_size]
                try:
                    call = self._submit(
                        shard_id, "eval", [requests[i] for i in chunk]
                    )
                except ShardUnavailableError as error:
                    unavailable.append((shard_id, chunk, error))
                else:
                    in_flight.append((call, chunk))
        for index in scatter_indices:
            responses[index] = self.scatter.evaluate(requests[index])
        # Collect every batch before surfacing any error, so one failed
        # chunk never strands the others' results mid-protocol (late
        # responses to an abandoned tag are dropped by the dispatcher).
        errors: List[str] = []
        for call, chunk in in_flight:
            try:
                payload = self._await(call)
            except ShardUnavailableError as error:
                unavailable.append((call.shard_id, chunk, error))
                continue
            except PolicyStoreError as error:
                errors.append(str(error))
                continue
            for index, response in zip(chunk, payload):
                responses[index] = response
        refusal: Optional[ShardUnavailableError] = None
        for shard_id, chunk, error in unavailable:
            if self.on_unavailable == "fallback":
                fallback = self._evaluate_fallback(
                    shard_id, [requests[i] for i in chunk]
                )
                for index, response in zip(chunk, fallback):
                    responses[index] = response
            else:
                with self._counter_lock:
                    self.unavailable_errors += 1
                if refusal is None:
                    refusal = error
        if errors:
            raise PolicyStoreError("; ".join(errors))
        if refusal is not None:
            raise refusal
        with self._counter_lock:
            self.routed_evaluations += sum(len(indices) for indices in per_shard)
            self.scatter_evaluations += len(scatter_indices)
        return responses

    # -- monitoring -------------------------------------------------------------

    def health(self) -> dict:
        """A pure snapshot of supervision state, per shard and pooled."""
        shards = []
        for runtime in self._runtimes:
            with runtime.lock:
                shards.append({
                    "shard_id": runtime.shard_id,
                    "status": runtime.status,
                    "restarts": runtime.restarts,
                    "catchup_pending": len(runtime.catchup),
                    "last_error": runtime.last_error,
                })
        with self._counter_lock:
            worker_restarts = self.worker_restarts
            fallback_evaluations = self.fallback_evaluations
            unavailable_errors = self.unavailable_errors
        return {
            "closed": self._closed,
            "on_unavailable": self.on_unavailable,
            "shards": shards,
            "statuses": [entry["status"] for entry in shards],
            "degraded_shards": [
                entry["shard_id"] for entry in shards
                if entry["status"] == "degraded"
            ],
            "worker_restarts": worker_restarts,
            "fallback_evaluations": fallback_evaluations,
            "unavailable_errors": unavailable_errors,
        }

    def flush_caches(self) -> None:
        """Cold-start every live worker's decision cache and the
        scatter cache.  A down shard is skipped — its next generation
        starts cache-cold by construction."""
        calls = []
        for shard_id in range(self.n_shards):
            try:
                calls.append(self._submit(shard_id, "flush"))
            except ShardUnavailableError:
                continue
        for call in calls:
            try:
                self._await(call)
            except ShardUnavailableError:
                pass
        self.scatter.flush()

    def cache_stats(self) -> dict:
        """A pure snapshot aggregated over the live workers (same shape
        as :meth:`ShardedPDP.cache_stats`, plus robustness counters).

        A down/degraded shard contributes zeros — its worker's counters
        died with it — and is counted in ``shards_unavailable``.
        """
        calls: List[Optional[_PendingCall]] = []
        for shard_id in range(self.n_shards):
            try:
                calls.append(self._submit(shard_id, "stats"))
            except ShardUnavailableError:
                calls.append(None)
        shard_stats = []
        shards_unavailable = 0
        for call in calls:
            if call is None:
                shards_unavailable += 1
                shard_stats.append(dict(_ZERO_CACHE_STATS))
                continue
            try:
                shard_stats.append(self._await(call))
            except ShardUnavailableError:
                shards_unavailable += 1
                shard_stats.append(dict(_ZERO_CACHE_STATS))
        totals = _aggregate_cache_stats(
            shard_stats,
            self.scatter.stats(),
            self.routed_evaluations,
            self.scatter_evaluations,
        )
        with self._counter_lock:
            totals["worker_restarts"] = self.worker_restarts
            totals["fallback_evaluations"] = self.fallback_evaluations
            totals["unavailable_errors"] = self.unavailable_errors
        totals["shards_unavailable"] = shards_unavailable
        return totals

    def __repr__(self) -> str:
        if self._closed:
            return f"ProcessShardPool(shards={self.n_shards}, closed)"
        statuses = ",".join(
            runtime.status for runtime in self._runtimes
        )
        return f"ProcessShardPool(shards={self.n_shards}, [{statuses}])"
