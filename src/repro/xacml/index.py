"""A target index over loaded policies.

The seed PDP answers every request by scanning *all* loaded policies
through a combining algorithm — O(policies) per request even though a
typical target names one subject and one resource.  The index maps the
literal subject-id / resource-id / action-id values a policy's target
can possibly match to the policy, so the PDP only evaluates plausibly
applicable candidates.

The index is a sound *over-approximation*: ``candidate_ids(request)``
is guaranteed to contain every policy whose target matches the request
(it may contain extra policies, which the full evaluation then rejects).
That guarantee is what keeps indexed evaluation byte-for-byte
decision-equivalent to the linear scan for the built-in combining
algorithms, all of which ignore NotApplicable policies.

Indexability is per target alternative: an alternative is indexable on
a category when it contains a ``string-equal`` match on the standard
subject-id / resource-id / action-id attribute — such an alternative can
only match requests carrying that literal value.  A category with no
alternatives (XACML "any") or with any non-indexable alternative (regex
matches, non-standard attributes, ordered comparisons) falls back to the
category's wildcard bucket, which every lookup includes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.xacml.attributes import (
    ACTION_ID,
    RESOURCE_ID,
    SUBJECT_ID,
    AttributeCategory,
)
from repro.xacml.functions import STRING_EQUAL
from repro.xacml.policy import Policy
from repro.xacml.request import Request

#: The three indexed categories with their standard identity attributes.
INDEXED_CATEGORIES: Tuple[Tuple[AttributeCategory, str], ...] = (
    (AttributeCategory.SUBJECT, SUBJECT_ID),
    (AttributeCategory.RESOURCE, RESOURCE_ID),
    (AttributeCategory.ACTION, ACTION_ID),
)


def category_keys(
    alternatives, category: AttributeCategory, attribute_id: str
) -> Optional[Set[str]]:
    """The literal values the category can match, or None for wildcard.

    ``string-equal`` compares ``str(request) == str(policy)``, so keying
    on ``str(value)`` is exact for the indexable matches.
    """
    if not alternatives:
        return None
    keys: Set[str] = set()
    for alternative in alternatives:
        literal = None
        for match in alternative:
            if (
                match.function_id == STRING_EQUAL
                and match.category is category
                and match.attribute_id == attribute_id
            ):
                literal = str(match.value.value)
                break
        if literal is None:
            # This alternative could match any value of the category —
            # the whole policy must live in the wildcard bucket.
            return None
        keys.add(literal)
    return keys


def target_keys(target) -> Dict[AttributeCategory, Optional[Set[str]]]:
    """:func:`category_keys` of each indexed category of *target*.

    The one reading of a target both inverted indexes share — this
    module's over policies and :class:`~repro.xacml.pdp.DecisionCache`'s
    over cached requests — so the two cannot drift apart.
    """
    return {
        category: category_keys(alternatives, category, attribute_id)
        for (category, attribute_id), alternatives in zip(
            INDEXED_CATEGORIES, (target.subjects, target.resources, target.actions)
        )
    }


def intersect_unions(unions: List[List[Set]]) -> Set:
    """The intersection, over *unions*, of each one's union of holder
    sets (every list non-empty) — a fresh set, never a holder.

    The one lookup both inverted indexes share.  Only the smallest
    union is built; each member is membership-tested against the other
    unions' holders, and the walk stops once nothing is left, so a
    bucket nearly everything is in (``read``) is never copied.
    """
    smallest = min(unions, key=lambda holders: sum(map(len, holders)))
    result = set().union(*smallest)
    for holders in unions:
        if not result:
            break
        if holders is not smallest:
            result = {key for key in result for held in holders if key in held}
    return result


class PolicyIndex:
    """Maps target literals to candidate policy ids, one bucket set per
    indexed category plus a wildcard bucket for unconstrained targets."""

    def __init__(self):
        self._buckets: Dict[AttributeCategory, Dict[str, Set[str]]] = {
            category: {} for category, _ in INDEXED_CATEGORIES
        }
        self._wildcards: Dict[AttributeCategory, Set[str]] = {
            category: set() for category, _ in INDEXED_CATEGORIES
        }
        #: policy id → per-category key sets, for O(keys) removal.
        self._keys: Dict[str, Dict[AttributeCategory, Optional[Set[str]]]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, policy_id: str) -> bool:
        return policy_id in self._keys

    def add(self, policy: Policy) -> None:
        per_category = target_keys(policy.target)
        for category, keys in per_category.items():
            if keys is None:
                self._wildcards[category].add(policy.policy_id)
            else:
                buckets = self._buckets[category]
                for key in keys:
                    buckets.setdefault(key, set()).add(policy.policy_id)
        self._keys[policy.policy_id] = per_category

    def discard(self, policy_id: str) -> None:
        per_category = self._keys.pop(policy_id, None)
        if per_category is None:
            return
        for category, keys in per_category.items():
            if keys is None:
                self._wildcards[category].discard(policy_id)
                continue
            buckets = self._buckets[category]
            for key in keys:
                bucket = buckets.get(key)
                if bucket is not None:
                    bucket.discard(policy_id)
                    if not bucket:
                        del buckets[key]

    def replace(self, policy: Policy) -> None:
        self.discard(policy.policy_id)
        self.add(policy)

    def candidate_ids(self, request: Request) -> Set[str]:
        """Ids of every policy whose target could match *request* — a
        fresh set, never a bucket."""
        unions = []
        for category, attribute_id in INDEXED_CATEGORIES:
            wildcards = self._wildcards[category]
            holders = [wildcards] if wildcards else []
            buckets = self._buckets[category]
            if buckets:
                for value in request.values_of(category, attribute_id):
                    bucket = buckets.get(str(value.value))
                    if bucket:
                        holders.append(bucket)
            if not holders:
                return set()
            unions.append(holders)
        return intersect_unions(unions)

    def stats(self) -> Dict[str, int]:
        """Bucket counts, for monitoring and tests."""
        return {
            "policies": len(self._keys),
            **{
                f"{category.value}_buckets": len(self._buckets[category])
                for category, _ in INDEXED_CATEGORIES
            },
            **{
                f"{category.value}_wildcards": len(self._wildcards[category])
                for category, _ in INDEXED_CATEGORIES
            },
        }

    def __repr__(self) -> str:
        return f"PolicyIndex(policies={len(self._keys)})"
