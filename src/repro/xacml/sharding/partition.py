"""Where policies live and which shards a request must visit.

**Placement.**  Policies are hash-partitioned by the literal subject-id
values their target can match — the *candidate keys* the target index
extracts (``string-equal`` on the standard subject-id attribute).  A
policy whose subject category is a wildcard or carries any
non-indexable alternative (regex matches, non-standard attributes)
over-approximates to *every* shard, exactly mirroring the index's
wildcard-bucket fallback; a multi-literal target is placed on each
literal's shard.  Subject is the axis because the paper's populations
are per-(subject, stream) grants over a handful of streams: Table 3's
1,000 policies name six city streams and hundreds of subjects, so
hashing the stream leaves at most six keys — at two shards crc32 puts
all six on one shard and the other evaluates nothing — while hashing
the subject spreads policies and traffic within a few points of even
(``docs/performance.md``, *One placement: subject-id keys*).  The hash
is :func:`zlib.crc32` — stable across processes, unlike ``hash(str)``,
so placement (and therefore benchmark shard balance) is reproducible,
and a worker process agrees with its parent about who owns what.

**Routing.**  The placement rule yields the routing invariant: every
policy whose target could match a request lives on every shard
:func:`shards_for_request` returns for it.  A request with one
subject-id — the overwhelmingly common shape — is answered entirely by
that subject's shard PDP (its index, its decision cache).  A request
with no subject-id can only match fully-replicated policies, so any one
shard (shard 0) answers it.  A request whose subject-ids span shards
takes the *scatter* path: candidates are gathered from each relevant
shard, de-duplicated (wildcard replicas appear once per shard) and
re-ordered by global load sequence, then combined through the same
:func:`repro.xacml.pdp.decide` step as everything else.
"""

from __future__ import annotations

import zlib
from typing import FrozenSet, Tuple

from repro.xacml.attributes import SUBJECT_ID, AttributeCategory
from repro.xacml.index import category_keys
from repro.xacml.policy import Policy
from repro.xacml.request import Request


def shard_of(key: str, n_shards: int) -> int:
    """The shard owning routing key *key* — stable across processes."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


def shards_for_policy(policy: Policy, n_shards: int) -> FrozenSet[int]:
    """The shards a replica of *policy* lives on: one per subject-id
    literal of its target, or every shard for a wildcard subject."""
    keys = category_keys(policy.target.subjects, AttributeCategory.SUBJECT, SUBJECT_ID)
    if keys is None:
        return frozenset(range(n_shards))
    return frozenset(shard_of(key, n_shards) for key in keys)


def shards_for_request(request: Request, n_shards: int) -> Tuple[int, ...]:
    """The shards whose policies could match *request*, ascending."""
    values = request.values_of(AttributeCategory.SUBJECT, SUBJECT_ID)
    if not values:
        # Only fully-replicated policies can match; shard 0 is as
        # authoritative as any.
        return (0,)
    return tuple(sorted({shard_of(str(value.value), n_shards) for value in values}))
