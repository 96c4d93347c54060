"""Differential tests: indexed+cached PDP ≡ reference linear-scan PDP.

The fast path (target index + decision cache, `repro.xacml.index` /
`repro.xacml.pdp`) must be *decision- and obligation-identical* to the
seed linear scan for every request, under every built-in policy
combining algorithm, and across policy load/update/remove events —
checked *after every single event*, not once at the end.  Both
PDPs share one :class:`PolicyStore`, so any divergence is attributable
to the fast path itself.  The cache's request-side literal index must
also be the exact dual of the store's policy-side target index.

The served path evaluates *memoised* parses of request documents
(``parse_request_xml``), so one property pins that a memoised request is
indistinguishable from a fresh parse — in content and in the decision it
gets.

Two request-stream shapes are exercised: hypothesis-generated random
policies/requests (including non-indexable regex targets, multi-valued
attributes and environment conditions), and the Table 3 workload of
``repro.workload.generator`` replayed through ``zipf_sequence`` — the
distribution-controlled load the benchmarks use.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.generator import WorkloadGenerator
from repro.workload.zipf import zipf_sequence
from repro.xacml.attributes import (
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)
from repro.xacml.functions import (
    INTEGER_GREATER_THAN,
    INTEGER_LESS_THAN,
    STRING_REGEXP_MATCH,
)
from repro.xacml.index import PolicyIndex, target_keys
from repro.xacml.pdp import DecisionCache, PolicyDecisionPoint
from repro.xacml.policy import Condition, Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect, Obligation
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import parse_request_xml, request_to_xml

COMBINING = ("first-applicable", "permit-overrides", "deny-overrides")

SUBJECTS = ("alice", "bob", "carol", "dave")
RESOURCES = ("weather0", "weather1", "gps0")
ACTIONS = ("read", "write")


def make_pdp_pair(combining="first-applicable", cache_size=64):
    """A fast PDP and a reference PDP over one shared store."""
    store = PolicyStore()
    fast = PolicyDecisionPoint(store, combining, cache_size=cache_size)
    reference = PolicyDecisionPoint.reference(store, combining)
    return store, fast, reference


def assert_equivalent(fast, reference, request):
    expected = reference.evaluate(request)
    actual = fast.evaluate(request)
    assert actual.decision is expected.decision
    assert actual.policy_id == expected.policy_id
    assert actual.obligations == expected.obligations
    assert actual.status_message == expected.status_message


# -- hypothesis strategies ---------------------------------------------------------

def _target(spec):
    """Build a Target from (subject_spec, resource, action).

    ``subject_spec`` is None (any), a plain value, a tuple of values
    (multi-alternative — exercises multi-key index buckets), or
    ``("regex", pattern)`` (non-indexable — exercises the wildcard
    fallback).
    """
    subject_spec, resource, action = spec
    if subject_spec is None:
        subjects = ()
    elif isinstance(subject_spec, tuple) and subject_spec[0] == "regex":
        subjects = [[
            Match(
                AttributeCategory.SUBJECT,
                SUBJECT_ID,
                AttributeValue.string(subject_spec[1]),
                function_id=STRING_REGEXP_MATCH,
            )
        ]]
    elif isinstance(subject_spec, tuple):
        subjects = [
            [Match(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string(s))]
            for s in subject_spec
        ]
    else:
        subjects = [[
            Match(
                AttributeCategory.SUBJECT,
                SUBJECT_ID,
                AttributeValue.string(subject_spec),
            )
        ]]
    base = Target.for_ids(resource=resource, action=action)
    base.subjects = [list(a) for a in subjects]
    return base


subject_specs = st.one_of(
    st.none(),
    st.sampled_from(SUBJECTS),
    st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(SUBJECTS)),
    st.tuples(st.just("regex"), st.sampled_from(("ali.*", "(bob|carol)", "z.*"))),
)

target_specs = st.tuples(
    subject_specs,
    st.one_of(st.none(), st.sampled_from(RESOURCES)),
    st.one_of(st.none(), st.sampled_from(ACTIONS)),
)

conditions = st.one_of(
    st.none(),
    st.builds(
        lambda fn, threshold: Condition(
            AttributeCategory.ENVIRONMENT,
            "clearance",
            fn,
            AttributeValue.integer(threshold),
        ),
        st.sampled_from((INTEGER_GREATER_THAN, INTEGER_LESS_THAN)),
        st.integers(min_value=0, max_value=5),
    ),
)

rule_specs = st.tuples(
    st.sampled_from((Effect.PERMIT, Effect.DENY)),
    st.one_of(st.none(), st.sampled_from(SUBJECTS)),
    conditions,
)

policy_specs = st.tuples(
    target_specs,
    st.lists(rule_specs, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),  # obligation count
    st.sampled_from(("first-applicable", "permit-overrides", "deny-overrides")),
)


def build_policy(policy_id, spec):
    target_spec, rules_spec, n_obligations, rule_combining = spec
    rules = [
        Rule(
            f"{policy_id}:r{i}",
            effect,
            target=Target.for_ids(subject=rule_subject) if rule_subject else None,
            condition=condition,
        )
        for i, (effect, rule_subject, condition) in enumerate(rules_spec)
    ]
    obligations = [
        Obligation(
            f"{policy_id}:ob{i}",
            fulfill_on=Effect.PERMIT if i % 2 == 0 else Effect.DENY,
        )
        for i in range(n_obligations)
    ]
    return Policy(
        policy_id,
        target=_target(target_spec),
        rules=rules,
        rule_combining=rule_combining,
        obligations=obligations,
    )


@st.composite
def requests(draw):
    request = Request.simple(
        draw(st.sampled_from(SUBJECTS + ("eve",))),
        draw(st.sampled_from(RESOURCES + ("other",))),
        draw(st.sampled_from(ACTIONS)),
        environment={"clearance": draw(st.integers(min_value=0, max_value=5))},
    )
    extra_subject = draw(st.one_of(st.none(), st.sampled_from(SUBJECTS)))
    if extra_subject is not None:
        # Multi-valued subject-id: the index must union the buckets.
        request.add(
            Attribute(
                AttributeCategory.SUBJECT,
                SUBJECT_ID,
                AttributeValue.string(extra_subject),
            )
        )
    return request


#: One store mutation per step; ``load`` is weighted up because it is
#: the event whose invalidation is *targeted by request literals* — the
#: rule with the most ways to be wrong.
mutations = st.lists(
    st.tuples(
        st.sampled_from(("load", "load", "load", "update", "remove")),
        st.integers(min_value=0, max_value=9),
        policy_specs,
    ),
    max_size=6,
)

#: Example budget: the PR suites keep the default; the nightly
#: ``fuzz-deep`` job raises it under the existing ``FUZZ_LONG=1``.
EXAMPLES = 400 if os.environ.get("FUZZ_LONG") else 60


def permit_spec(subject_spec, resource=None, action=None):
    """A ``policy_specs`` value: one unconditional Permit rule."""
    return ((subject_spec, resource, action), [(Effect.PERMIT, None, None)], 0, "first-applicable")


def run_interleaved(specs, request_list, combining, ops):
    """evaluate → one mutation → evaluate, per step.

    Every step re-checks the whole request list twice (the second pass
    is served from the decision cache), so an entry a mutation should
    have evicted is caught at the very next step instead of being
    masked by a later flush.
    """
    store, fast, reference = make_pdp_pair(combining, cache_size=8)
    for i, spec in enumerate(specs):
        store.load(build_policy(f"p{i}", spec))
    for request in request_list + request_list:
        assert_equivalent(fast, reference, request)
    next_id = len(specs)
    for kind, index, spec in ops:
        loaded = [p.policy_id for p in store.policies()]
        if kind == "load":
            store.load(build_policy(f"p{next_id}", spec))
            next_id += 1
        elif not loaded:
            continue
        elif kind == "update":
            store.update(build_policy(loaded[index % len(loaded)], spec))
        else:
            store.remove(loaded[index % len(loaded)])
        for request in request_list + request_list:
            assert_equivalent(fast, reference, request)


class TestPropertyEquivalence:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        specs=st.lists(policy_specs, min_size=0, max_size=8),
        request_list=st.lists(requests(), min_size=1, max_size=8),
        combining=st.sampled_from(COMBINING),
        ops=mutations,
    )
    def test_indexed_cached_pdp_matches_reference(
        self, specs, request_list, combining, ops
    ):
        run_interleaved(specs, request_list, combining, ops)

    # Two broken caches sizing let through the all-mutations-then-one-
    # check form of this file; each is pinned by a deterministic case.

    def test_regression_a_cache_that_ignores_loads(self):
        """Mutant: ``DecisionCache.on_store_event`` does nothing on
        ``loaded`` — the cached NotApplicable must not survive."""
        run_interleaved(
            specs=[],
            request_list=[Request.simple("bob", "weather0")],
            combining="first-applicable",
            ops=[("load", 0, permit_spec("bob", "weather0"))],
        )

    def test_regression_only_one_literal_of_a_multi_alternative_target(self):
        """Mutant: reach honours one literal of a two-alternative target
        — both subjects' cached NotApplicables must go, so whichever
        literal the mutant picks, the other request diverges."""
        run_interleaved(
            specs=[],
            request_list=[Request.simple(s, "weather0") for s in ("alice", "bob")],
            combining="first-applicable",
            ops=[("load", 0, permit_spec(("alice", "bob"), "weather0"))],
        )

    def test_regression_update_onto_a_wildcard_target(self):
        run_interleaved(
            specs=[permit_spec("eve", "gps0")],
            request_list=[Request.simple("alice", "weather1"), Request.simple("eve", "gps0")],
            combining="deny-overrides",
            ops=[("update", 0, permit_spec(None))],
        )

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(spec=policy_specs, request_list=st.lists(requests(), min_size=1, max_size=8))
    def test_request_index_is_the_dual_of_the_policy_index(self, spec, request_list):
        """``key ∈ reach(policy)`` ⇔ ``policy ∈ candidate_ids(request)``
        on a single-policy index: the two inverted indexes agree
        exactly (reach is None for the all-wildcard target, which is a
        candidate for every request)."""
        policy = build_policy("p", spec)
        index = PolicyIndex()
        index.add(policy)
        cache = DecisionCache(64)
        for request in request_list:
            cache.put(request.fingerprint(), None, frozenset())
        reached = cache.reach(policy)
        candidates_of = {
            request.fingerprint() for request in request_list
            if index.candidate_ids(request)
        }
        if reached is None:
            assert all(keys is None for keys in target_keys(policy.target).values())
            reached = set(cache.entries)
        assert reached == candidates_of

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(policy_specs, min_size=0, max_size=6),
        request_list=st.lists(requests(), min_size=1, max_size=6),
    )
    def test_memoised_request_parse_matches_a_fresh_parse(self, specs, request_list):
        store, fast, reference = make_pdp_pair(cache_size=8)
        for i, spec in enumerate(specs):
            store.load(build_policy(f"p{i}", spec))
        for request in request_list + request_list:
            xml = request_to_xml(request)
            fresh = parse_request_xml.__wrapped__(xml)
            memoised = parse_request_xml(xml)
            assert parse_request_xml(xml) is memoised
            assert memoised.fingerprint() == fresh.fingerprint() == request.fingerprint()
            assert memoised.all_attributes() == fresh.all_attributes()
            expected = reference.evaluate(fresh)
            actual = fast.evaluate(memoised)
            assert actual.decision is expected.decision
            assert actual.policy_id == expected.policy_id


class TestWorkloadEquivalence:
    """The Table 3 generator's policies replayed as a Zipf request stream."""

    @pytest.fixture(scope="class")
    def workload(self):
        generator = WorkloadGenerator(seed=7)
        generator.parameters = generator.parameters._replace(
            n_requests=60, n_policies=40
        )
        return generator.generate()

    @pytest.mark.parametrize("combining", COMBINING)
    def test_zipf_stream_equivalence(self, workload, combining):
        store, fast, reference = make_pdp_pair(combining, cache_size=32)
        seen = set()
        for item in workload:
            if item.policy.policy_id not in seen:
                seen.add(item.policy.policy_id)
                store.load(item.policy)
        stream = zipf_sequence(
            [item.request for item in workload], length=200, max_rank=50, seed=11
        )
        for request in stream:
            assert_equivalent(fast, reference, request)
        # The Zipf skew must actually produce cache hits, or this test
        # is not exercising the cached path at all.
        assert fast.cache.hits > 0

    def test_equivalence_through_update_and_remove(self, workload):
        store, fast, reference = make_pdp_pair(cache_size=32)
        unique = []
        seen = set()
        for item in workload:
            if item.policy.policy_id not in seen:
                seen.add(item.policy.policy_id)
                unique.append(item)
                store.load(item.policy)
        stream = zipf_sequence(
            [item.request for item in workload], length=120, max_rank=50, seed=13
        )
        for request in stream:
            assert_equivalent(fast, reference, request)
        # Remove every third policy, re-target every fourth to a
        # different subject, then replay the same stream.
        for i, item in enumerate(unique):
            if i % 3 == 0:
                store.remove(item.policy.policy_id)
            elif i % 4 == 0:
                replacement = Policy(
                    item.policy.policy_id,
                    target=Target.for_ids(subject="nobody", resource=item.stream),
                    rules=list(item.policy.rules),
                    obligations=item.policy.obligations,
                )
                store.update(replacement)
        for request in stream:
            assert_equivalent(fast, reference, request)
