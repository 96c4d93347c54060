"""Where policies live and which shards a request must visit.

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
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

from repro.errors import PolicyStoreError
from repro.xacml.attributes import RESOURCE_ID, SUBJECT_ID, AttributeCategory
from repro.xacml.index import category_keys
from repro.xacml.policy import Policy
from repro.xacml.request import Request


def shard_of(key: str, n_shards: int) -> int:
    """The shard owning routing key *key* — stable across processes."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


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
        keys = category_keys(alternatives, self.category, self.attribute_id)
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
