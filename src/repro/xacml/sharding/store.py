"""The sharded policy store and its cross-shard invalidation bus.

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
``loaded`` — evicting what the new target reaches — where it arrived).
Cross-shard coherence flows through the :class:`InvalidationBus`: every logical
store event is published exactly once (never once per replica) to
subscribers that span shards — query-graph revocation, audit trails,
the proxy handle cache and the scatter decision cache.  The bus exposes
the same ``add_listener`` contract as ``PolicyStore``, so every
existing store observer works unchanged against a sharded deployment.
Shard-*level* observers (:meth:`ShardedPolicyStore.add_shard_listener`)
additionally see each per-replica operation with its pinned sequence —
the feed a :class:`~repro.xacml.sharding.pool.ProcessShardPool` mirrors
into worker processes.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import PolicyStoreError
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.sharding.partition import shards_for_policy, shards_for_request
from repro.xacml.store import ChangeListener, PolicyStore

logger = logging.getLogger(__name__)


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

    def __init__(self, n_shards: int):
        if n_shards <= 0:
            raise PolicyStoreError(f"shard count must be positive, got {n_shards}")
        self.n_shards = n_shards
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
        #: non-indexable subject targets) — a balance metric.
        self.replicated = 0  # guarded by: self._mutation_lock
        self._shard_listeners: List[ShardListener] = []  # guarded by: owner
        self._mutation_lock = threading.Lock()

    # -- placement ---------------------------------------------------------------

    def shards_for_request(self, request: Request) -> Tuple[int, ...]:
        """The shards whose policies could match *request*, ascending.

        A request with no subject-id can only match fully-replicated
        policies, which every shard holds — any single shard is
        authoritative, so shard 0 is returned.
        """
        return shards_for_request(request, self.n_shards)

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
            for shard_op in shard_ops:
                for listener in list(self._shard_listeners):
                    listener(*shard_op)
        finally:
            self.bus.publish(event, policy)

    def load(self, policy: Policy) -> None:
        """Load a new policy onto its owning shard(s)."""
        with self._mutation_lock:
            if policy.policy_id in self._policies:
                raise PolicyStoreError(
                    f"policy {policy.policy_id!r} is already loaded"
                )
            shard_ids = shards_for_policy(policy, self.n_shards)
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
            self._finish_mutation(shard_ops, "loaded", policy)

    def update(self, policy: Policy) -> None:
        """Replace a loaded policy, migrating replicas as its keys move.

        Decomposes into shard-local events — ``updated`` on shards in
        both placements, ``removed`` where the new version no longer
        belongs, ``loaded`` (with the original global sequence pinned)
        where it newly belongs — then publishes one logical ``updated``.
        """
        with self._mutation_lock:
            if policy.policy_id not in self._policies:
                raise PolicyStoreError(
                    f"policy {policy.policy_id!r} is not loaded"
                )
            old_shards = self._placement[policy.policy_id]
            new_shards = shards_for_policy(policy, self.n_shards)
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
            self._finish_mutation(shard_ops, "updated", policy)

    def remove(self, policy_id: str) -> Policy:
        with self._mutation_lock:
            if policy_id not in self._policies:
                raise PolicyStoreError(f"policy {policy_id!r} is not loaded")
            shard_ids = self._placement.pop(policy_id)
            shard_ops = []
            for shard_id in sorted(shard_ids):
                self.shards[shard_id].remove(policy_id)
                shard_ops.append((shard_id, "remove", policy_id, None))
            policy = self._policies.pop(policy_id)
            self._sequence.pop(policy_id, None)
            if len(shard_ids) == self.n_shards:
                self.replicated -= 1
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

    def shard_policies_for(self, shard_id: int, request: Request) -> List[Policy]:
        """One shard replica's indexed candidates for *request*, read
        under the mutation lock — for callers on threads that do not
        own the shard (a pool answering for a dead worker), whose read
        must never interleave with a mutation of that replica."""
        with self._mutation_lock:
            return self.shards[shard_id].policies_for(request)

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
            f"policies={len(self._policies)}, replicated={self.replicated})"
        )
