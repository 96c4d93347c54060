"""The XACML differential harness: every evaluator ≡ ``PolicyDecisionPoint.reference()``.

Three evaluators answer for eXACML+'s decision model: the indexed+cached
:class:`PolicyDecisionPoint`, the in-process :class:`ShardedPDP` (shard
PDPs plus the cross-shard scatter cache) and :class:`ProcessShardPool`
(the shard PDPs on worker processes).  This module is the one place that
asks whether each decides exactly as the oracle, the seed linear scan
``PolicyDecisionPoint.reference()`` over a single store.

- **Scripts.**  A script is drawn once: policies, requests, a combining
  algorithm and store mutations (load, update, remove), each resolved
  against the policies loaded at its step.  Targets are literal,
  multi-alternative, regex (non-indexable) or wildcard; rules carry
  environment conditions; policies carry obligations.  Requests are
  simple, multi-subject, multi-resource, resource-less or subject-less.
  The Table 3 workload, replayed as a Zipf stream through removals and
  re-targeting updates, is a second source, and ``MUTANTS`` pins one
  script per known way of breaking an evaluator.
- **The axis.**  Every script runs on every member of ``AXIS``: the PDP
  uncached and at two cache sizes (one evicting under the Table 3
  stream), ``ShardedPDP`` over shard counts {1, 2, 8} (and once
  uncached), and ``ProcessShardPool`` over shard counts {1, 2, 4}
  (fewer drawn scripts, as each forks workers; the Table 3 replay on
  the widest pool under one algorithm).
- **The check.**  After the load, and again after every mutation (a
  churn counts as one), the request list is evaluated one request at a
  time and then as one batch (served from the caches the first pass
  filled).  Every answer must equal the oracle's in decision, deciding
  policy, obligations and status message.  Then the counters:
  ``cache_stats()`` is a pure snapshot, a cache hits where one exists and
  holds nothing where none does, and a sharded evaluator reports the
  routing split its store implies.

``FUZZ_LONG=1`` raises every member's budget eightfold; ``FUZZ_SEED``
pins the Hypothesis seed (tier-1 runs seed 0, and a failure reports the
seed it ran under).
"""

import os
import random
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, count, product
from typing import Callable, NamedTuple, Sequence

import pytest
from hypothesis import HealthCheck, Phase, given, note, seed, settings, strategies as st

from repro.workload.generator import WorkloadGenerator
from repro.workload.zipf import zipf_sequence
from repro.xacml.attributes import (
    RESOURCE_ID, SUBJECT_ID, Attribute, AttributeCategory, AttributeValue,
)
from repro.xacml.functions import INTEGER_GREATER_THAN, INTEGER_LESS_THAN, STRING_REGEXP_MATCH
from repro.xacml.pdp import DEFAULT_CACHE_SIZE, PolicyDecisionPoint
from repro.xacml.policy import Condition, Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect, Obligation
from repro.xacml.sharding import ProcessShardPool, ShardedPDP, ShardedPolicyStore, shard_of
from repro.xacml.store import PolicyStore

LONG = bool(os.environ.get("FUZZ_LONG"))
SEED = int(os.environ.get("FUZZ_SEED") or (random.SystemRandom().randrange(2**31) if LONG else 0))
SETTINGS = dict(deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])

COMBINING = ("first-applicable", "permit-overrides", "deny-overrides")
#: The drawn subjects: ``SUBJECTS[k]`` lives on shard k at n = 4 (so on
#: k mod 2 at n = 2), and every pool shard holds drawn literal subjects.
SUBJECTS = tuple(
    next(f"{stem}{i}" for i in count() if shard_of(f"{stem}{i}", 4) == k)
    for k, stem in enumerate(("alice", "bob", "carol", "dave"))
)
RESOURCES = ("weather0", "weather1", "gps0")
ACTIONS = ("read", "write")
SUBJECT, RESOURCE = AttributeCategory.SUBJECT, AttributeCategory.RESOURCE

# -- policies ---------------------------------------------------------------------


#: A target's subject: any, one value, two alternatives (multi-key index
#: buckets, a replica on each literal's shard) or a regex (non-indexable:
#: the wildcard fallback, replicated to every shard), a quarter of the
#: time each; its resource: any half the time, else one value or, an
#: eighth of the time, a regex.
#: Tables keep a spec one draw: action, rule subject and condition are
#: each a wildcard half the time.
SUBJECT_SPECS = (
    (None,) * 12 + SUBJECTS * 3 + tuple(combinations(SUBJECTS, 2)) * 2
    + tuple(("regex", pattern) for pattern in ("ali.*", "(bob|carol).*", "z.*")) * 4
)
RESOURCE_SPECS = (None,) * 4 + RESOURCES + (("regex", "wea.*"),)
TARGET_SPECS = list(product(SUBJECT_SPECS, RESOURCE_SPECS, (None,) * 2 + ACTIONS))
CONDITIONS = (None,) * 12 + tuple(
    Condition(AttributeCategory.ENVIRONMENT, "clearance", fn, AttributeValue.integer(threshold))
    for fn in (INTEGER_GREATER_THAN, INTEGER_LESS_THAN) for threshold in range(6)
)
#: (effect, rule subject, condition).
RULE_SPECS = list(product((Effect.PERMIT, Effect.DENY), (None,) * 4 + SUBJECTS, CONDITIONS))

#: (target spec, rule specs, obligation count, rule-combining algorithm).
policy_specs = st.tuples(
    st.sampled_from(TARGET_SPECS),
    st.lists(st.sampled_from(RULE_SPECS), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(COMBINING),
)


def alternatives(category, spec):
    """A target category's alternatives for *spec*: any value (``None``),
    one value, a ``("regex", pattern)`` or a tuple of values."""
    attribute_id = SUBJECT_ID if category is SUBJECT else RESOURCE_ID
    if spec is None:
        return []
    if spec[0] == "regex":
        pattern = AttributeValue.string(spec[1])
        return [[Match(category, attribute_id, pattern, STRING_REGEXP_MATCH)]]
    values = (spec,) if isinstance(spec, str) else spec
    return [[Match(category, attribute_id, AttributeValue.string(value))] for value in values]


def build_target(subject, resource, action):
    """*subject* and *resource* are specs as :func:`alternatives` takes them."""
    target = Target.for_ids(action=action)
    target.subjects = alternatives(SUBJECT, subject)
    target.resources = alternatives(RESOURCE, resource)
    return target


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
        Obligation(f"{policy_id}:ob{i}", fulfill_on=(Effect.PERMIT, Effect.DENY)[i % 2])
        for i in range(n_obligations)
    ]
    return Policy(
        policy_id,
        target=build_target(*target_spec),
        rules=rules,
        rule_combining=rule_combining,
        obligations=obligations,
    )


def permit(policy_id, subject=None, resource=None, effect=Effect.PERMIT):
    """One unconditional rule; *subject* as :func:`build_target` takes it."""
    rules = [(effect, None, None)]
    return build_policy(policy_id, ((subject, resource, None), rules, 0, COMBINING[0]))


# -- requests ---------------------------------------------------------------------

SHAPES = ("simple", "multi-subject", "multi-resource", "no-resource", "no-subject")
REQUEST_SPECS = list(product(SUBJECTS + ("eve",), RESOURCES + ("other",), ACTIONS, range(6)))


def add_value(request, category, value):
    attribute_id = SUBJECT_ID if category is SUBJECT else RESOURCE_ID
    request.add(Attribute(category, attribute_id, AttributeValue.string(value)))
    return request


def shape_of(request):
    if not request.values_of(SUBJECT, SUBJECT_ID):
        return "no-subject"
    if not request.values_of(RESOURCE, RESOURCE_ID):
        return "no-resource"
    if len(request.values_of(RESOURCE, RESOURCE_ID)) > 1:
        return "multi-resource"
    return "multi-subject" if len(request.values_of(SUBJECT, SUBJECT_ID)) > 1 else "simple"


@st.composite
def requests(draw):
    """A subject-only request, a resource-only one (no subject-id: the
    wildcard-only route to shard 0), or a full one with an environment
    clearance and, now and then, a second subject-id (a scatter when the
    two hash apart) or resource-id (several index buckets)."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "no-resource":
        return add_value(Request(), SUBJECT, draw(st.sampled_from(SUBJECTS)))
    if shape == "no-subject":
        return add_value(Request(), RESOURCE, draw(st.sampled_from(RESOURCES)))
    subject, resource, action, clearance = draw(st.sampled_from(REQUEST_SPECS))
    request = Request.simple(subject, resource, action, environment={"clearance": clearance})
    if shape == "multi-subject":
        add_value(request, SUBJECT, draw(st.sampled_from(SUBJECTS)))
    elif shape == "multi-resource":
        add_value(request, RESOURCE, draw(st.sampled_from(RESOURCES)))
    return request


# -- scripts ----------------------------------------------------------------------


class Script(NamedTuple):
    """Policies loaded before the first check, the requests every check
    evaluates, and the mutations: ``("load" | "update", Policy)``,
    ``("remove", policy_id)``, ``("combining", algorithm)`` or
    ``("churn", mutations)``, several applied before one check."""

    policies: Sequence[Policy]
    requests: Sequence[Request]
    combining: str = COMBINING[0]
    mutations: Sequence[tuple] = ()


#: ``load`` is weighted up: its invalidation is targeted by request
#: literals, the rule with the most ways to be wrong.
MUTATION_KINDS = ("load", "load", "load", "update", "remove")


@st.composite
def scripts(draw):
    def build(label, policy_id, spec):
        note(f"{label} {policy_id}: {spec}")  # a failure shows targets and rules
        return build_policy(policy_id, spec)

    specs = draw(st.lists(policy_specs, max_size=8))
    policies = [build("policy", f"p{i}", spec) for i, spec in enumerate(specs)]
    loaded = [policy.policy_id for policy in policies]
    mutations = []
    for kind in draw(st.lists(st.sampled_from(MUTATION_KINDS), max_size=6)):
        step = len(mutations) + 1  # as run_script counts its checks
        if kind == "load":
            loaded.append(f"m{step}")
            mutations.append(("load", build(f"step {step} load", loaded[-1], draw(policy_specs))))
        elif loaded:
            policy_id = draw(st.sampled_from(loaded))
            if kind == "update":
                spec = draw(policy_specs)
                mutations.append(("update", build(f"step {step} update", policy_id, spec)))
            else:
                loaded.remove(policy_id)
                mutations.append(("remove", policy_id))
    return Script(
        policies,
        draw(st.lists(requests(), min_size=1, max_size=8)),
        draw(st.sampled_from(COMBINING)),
        mutations,
    )


@lru_cache(maxsize=None)
def table3(combining):
    """The Table 3 workload: its 40 policies and a 200-request Zipf stream
    of its requests, then one churn: every third policy removed and every
    fourth re-targeted to a subject no request names."""
    generator = WorkloadGenerator(seed=7)
    generator.parameters = generator.parameters._replace(n_requests=60, n_policies=40)
    workload = generator.generate()
    unique = {}
    for item in workload:
        unique.setdefault(item.policy.policy_id, item)
    mutations = []
    for i, item in enumerate(unique.values()):
        policy = item.policy
        if i % 3 == 0:
            mutations.append(("remove", policy.policy_id))
        elif i % 4 == 0:
            target = Target.for_ids(subject="nobody", resource=item.stream)
            mutations.append(("update", Policy(
                policy.policy_id, target=target, rules=list(policy.rules),
                obligations=policy.obligations,
            )))
    stream = zipf_sequence([item.request for item in workload], length=200, max_rank=50, seed=11)
    policies = [item.policy for item in unique.values()]
    return Script(policies, stream, combining, [("churn", tuple(mutations))])


# -- the axis ---------------------------------------------------------------------


class Pool(ProcessShardPool):
    """The pool as the harness drives it: four requests per ``eval``
    command, so one batch crosses the worker protocol as several tagged
    commands, and a short dispatcher poll, so a pool closes in
    milliseconds."""

    BATCH_SIZE = 4
    POLL_INTERVAL = 0.005


class Member(NamedTuple):
    """One evaluator: a fresh store, and the evaluator built over it as
    ``evaluator(store, combining, cache_size=cache_size)``."""

    store: Callable
    evaluator: Callable
    cache_size: int


AXIS = {
    "pdp": Member(PolicyStore, PolicyDecisionPoint, DEFAULT_CACHE_SIZE),
    "pdp-uncached": Member(PolicyStore, PolicyDecisionPoint, 0),
    # Caches that hold every drawn or pinned request list (so the second
    # pass hits) but not the Table 3 stream's 39 distinct requests.
    "pdp-32": Member(PolicyStore, PolicyDecisionPoint, 32),
    **{
        f"sharded-{n}": Member(partial(ShardedPolicyStore, n), ShardedPDP, 16)
        for n in (1, 2, 8)
    },
    "sharded-2-uncached": Member(partial(ShardedPolicyStore, 2), ShardedPDP, 0),
    **{
        f"pool-{n}": Member(partial(ShardedPolicyStore, n), Pool, DEFAULT_CACHE_SIZE)
        for n in (1, 2, 4)
    },
}


def linear_scan(store, combining, cache_size):
    return PolicyDecisionPoint.reference(store, combining)


ORACLE = Member(PolicyStore, linear_scan, 0)
POOLS = [name for name, member in AXIS.items() if member.evaluator is Pool]
IN_PROCESS = [name for name in AXIS if name not in POOLS]
#: Drawn scripts per run, each run on every in-process member; the pools
#: run fewer, as each script forks their workers.
EXAMPLES, POOL_EXAMPLES = (1200, 40) if LONG else (150, 5)
#: The first scripts of the tier-1 draw, counted by the census.
CENSUS_SCRIPTS = 40


def answer(response):
    return (response.decision, response.policy_id, response.obligations, response.status_message)


class Side:
    """An evaluator running a script: an axis member, or the oracle."""

    def __init__(self, name, member, script):
        self.name, self.member = name, member
        self.store = self.member.store()
        for policy in script.policies:
            self.store.load(policy)
        self.evaluator = self.member.evaluator(
            self.store, script.combining, cache_size=self.member.cache_size
        )
        self.routed = isinstance(self.evaluator, (ShardedPDP, ProcessShardPool))
        self.scattered = 0

    def apply(self, kind, payload):
        if kind == "combining":
            self.evaluator.combining = payload
        elif kind == "churn":
            for mutation in payload:
                self.apply(*mutation)
        elif kind:
            getattr(self.store, kind)(payload)

    def check(self, requests, expected, where):
        """One request at a time, then as a batch (from the caches)."""
        evaluate = self.evaluator.evaluate
        one_by_one = [evaluate(request) for request in requests]
        if self.routed:
            batch = self.evaluator.evaluate_many(requests)
        else:
            batch = [evaluate(request) for request in requests]
        for request, want, first, second in zip(requests, expected, one_by_one, batch):
            assert answer(first) == answer(second) == want, f"{self.name} {where} on {request!r}"
        if self.routed:
            self.scattered += 2 * sum(len(self.store.shards_for_request(r)) > 1 for r in requests)

    def check_counters(self, evaluations):
        assert self.evaluator.evaluations == evaluations
        stats = self.evaluator.cache_stats()
        assert self.evaluator.cache_stats() == stats  # a pure snapshot
        if self.member.cache_size:
            assert stats["hits"] + stats.get("scatter_hits", 0) > 0, self.name
        else:
            assert stats["entries"] == stats["hits"] == stats.get("scatter_entries", 0) == 0
        if self.routed:
            assert (stats["evaluations"], stats["scattered"]) == (evaluations, self.scattered)
            assert stats["routed"] == evaluations - self.scattered
            if not self.member.cache_size:
                assert stats["scatter_merges"] == self.scattered


def run_script(names, script):
    """Run *script* on the axis members *names* in lockstep with the
    oracle, checking every member after the load and after every
    mutation; return the oracle's decisions, counted."""
    oracle = Side("oracle", ORACLE, script)
    sides, decisions = [], Counter()
    try:
        for name in names:
            sides.append(Side(name, AXIS[name], script))
        for step, (kind, payload) in enumerate([(None, None), *script.mutations]):
            oracle.apply(kind, payload)
            responses = [oracle.evaluator.evaluate(request) for request in script.requests]
            decisions.update(response.decision.value for response in responses)
            expected = [answer(response) for response in responses]
            for side in sides:
                side.apply(kind, payload)
                side.check(script.requests, expected, f"after step {step} ({kind} {payload!r})")
        for side in sides:
            side.check_counters(2 * len(script.requests) * (1 + len(script.mutations)))
    finally:
        for side in sides:
            side.evaluator.detach()
    return decisions


def check_drawn_scripts(names, examples):
    @seed(SEED)
    @settings(max_examples=examples, **SETTINGS)
    @given(script=scripts())
    def check(script):
        note(f"FUZZ_SEED={SEED}")
        run_script(names, script)

    check()


def test_in_process_members_match_the_oracle():
    check_drawn_scripts(IN_PROCESS, EXAMPLES)


def test_pools_match_the_oracle():
    check_drawn_scripts(POOLS, POOL_EXAMPLES)


@pytest.mark.parametrize("combining", COMBINING)
def test_table3_replay_matches_the_oracle(combining):
    """Every in-process member under every algorithm; the widest pool
    (whose workers run the in-process shard PDP) under one, every pool
    under all three with ``FUZZ_LONG``: each request of the stream is one
    round trip to the workers."""
    pools = POOLS if LONG else POOLS[-1:] if combining == COMBINING[0] else []
    run_script(IN_PROCESS + pools, table3(combining))


# -- pinned scripts ---------------------------------------------------------------

#: Two subjects on distinct shards at every shard count the axis has
#: (2 divides 4 and 8, so hashing apart mod 2 is hashing apart there too).
SUBJECT_A = "user0"
SUBJECT_B = next(
    f"user{i}" for i in count(1) if shard_of(f"user{i}", 2) != shard_of(SUBJECT_A, 2)
)
#: ``SPREAD[k]`` lives on shard k at n = 8, hence on k mod n at every
#: shard count the axis has.
SPREAD = tuple(next(f"user{i}" for i in count() if shard_of(f"user{i}", 8) == k) for k in range(8))


def with_role(request):
    """*request* carrying the role "admin", a subject attribute no index
    keys on."""
    request.add(Attribute(SUBJECT, "role", AttributeValue.string("admin")))
    return request


def role_permit(policy_id, role, resource=None):
    """A permit whose subject is a role: a string-equal match, but not on
    subject-id, so neither the index nor placement can key on it."""
    policy = permit(policy_id, resource=resource)
    policy.target.subjects = [[Match(SUBJECT, "role", AttributeValue.string(role))]]
    return policy


#: One script per known break, each failing under it on the members the
#: break can reach, and the hand-written script the pool was once
#: checked by.
MUTANTS = {
    # ``DecisionCache.on_store_event`` does nothing on ``loaded``: the
    # cached NotApplicable outlives the load.
    "cache-ignores-loaded": Script(
        [], [Request.simple("bob", "weather0")],
        mutations=[("load", permit("p0", "bob", "weather0"))],
    ),
    # ``reach`` honours one literal of a two-alternative target: whichever
    # it picks, the other subject's NotApplicable survives.
    "reach-honours-one-literal": Script(
        [], [Request.simple(subject, "weather0") for subject in ("alice", "bob")],
        mutations=[("load", permit("p0", ("alice", "bob"), "weather0"))],
    ),
    # An update onto a wildcard target evicts only the entries its old
    # version decided.
    "update-onto-a-wildcard-target": Script(
        [permit("p0", "eve", "gps0")],
        [Request.simple("alice", "weather1"), Request.simple("eve", "gps0")],
        "deny-overrides",
        [("update", permit("p0"))],
    ),
    # Update migration loads the replica under a fresh sequence: p0,
    # migrated away and back behind p1, must stay first-applicable.
    "update-migration-keeps-load-order": Script(
        [permit("p0", SUBJECT_A), permit("p1", SUBJECT_A)],
        [Request.simple(SUBJECT_A, "weather0")],
        mutations=[("update", permit("p0", SUBJECT_B)), ("update", permit("p0", SUBJECT_A))],
    ),
    # A cross-shard cache keeps its decisions through an update that
    # migrates pa onto pb's shard (ahead of pb in load order) and through
    # pa's removal.
    "cross-shard-cache-invalidation": Script(
        [permit("pa", SUBJECT_A, "weather0"), permit("pb", SUBJECT_B)],
        [Request.simple(SUBJECT_A, "weather0"), Request.simple(SUBJECT_B, "weather0"),
         add_value(Request.simple(SUBJECT_A, "weather0"), SUBJECT, SUBJECT_B)],
        mutations=[("update", permit("pa", SUBJECT_B, "weather0")), ("remove", "pa")],
    ),
    # Not one break: every target kind (resource-only, subject-keyed,
    # wildcard, a resource regex no index holds) through a migrating
    # update (p2: bob → carol), a target narrowed to its subject (p1) and
    # the regex policy's removal.
    "every-target-kind-through-migration": Script(
        [permit("p0", resource="weather0"), permit("p1", "alice", "weather1"), permit("p2", "bob"),
         permit("p3"), permit("rex", resource=("regex", "wea.*"), effect=Effect.DENY),
         permit("p4", resource="gps0")],
        [*(Request.simple(s, r) for s in ("alice", "bob", "eve") for r in (*RESOURCES, "other")),
         add_value(Request.simple("alice", "weather0"), RESOURCE, "gps0"),
         add_value(Request.simple("carol", "weather1"), SUBJECT, "dave"),
         add_value(Request(), SUBJECT, "bob")],
        mutations=[
            ("update", permit("p0", resource="gps0")), ("update", permit("p2", "carol")),
            ("remove", "p3"), ("load", permit("p5", "dave")),
            ("update", permit("p1", "alice")), ("remove", "rex"),
        ],
    ),
    # An update that narrows a wildcard leaves its replica on the shards
    # the new placement drops: every other subject, and the subject-less
    # request on shard 0, keep their stale Permit.
    "update-off-a-wildcard-target": Script(
        [permit("p0", resource="weather0")],
        [*(Request.simple(subject, "weather0") for subject in SPREAD),
         add_value(Request(), RESOURCE, "weather0")],
        mutations=[("update", permit("p0", SPREAD[1], "weather0")),
                   ("update", permit("p0", SPREAD[2], "weather0"))],
    ),
    # A non-indexable subject (a regex, then a wildcard) placed on one
    # shard rather than replicated: subjects elsewhere lose their Permit.
    "non-indexable-subject-replicates": Script(
        [permit("rex", ("regex", "user.*"), "weather0"),
         permit("p0", SPREAD[0], "weather0", effect=Effect.DENY)],
        [Request.simple(subject, "weather0") for subject in SPREAD],
        mutations=[("update", permit("rex", resource="weather0")), ("remove", "rex")],
    ),
    # A multi-literal target placed on one literal's shard (the smallest):
    # the other literals' subjects route to shards without it, through
    # updates that move it onto the even shards and then the odd ones.
    "every-literal-of-a-target": Script(
        [permit("all", SPREAD, "weather0")],
        [Request.simple(subject, "weather0") for subject in SPREAD],
        mutations=[("update", permit("all", SPREAD[::2], "weather0")),
                   ("update", permit("all", SPREAD[1::2], "weather0"))],
    ),
    # A scatter merge left in shard order rather than global load order:
    # "hi" (loaded first, on the highest shard) must stay first-applicable
    # over "lo" on shard 0 until it is removed and loaded again behind it.
    "scatter-keeps-load-order": Script(
        [permit("hi", SPREAD[7]), permit("lo", SPREAD[0], effect=Effect.DENY)],
        [add_value(Request.simple(SPREAD[7], "weather0"), SUBJECT, SPREAD[0]),
         add_value(Request.simple(SPREAD[0], "weather1"), SUBJECT, SPREAD[7])],
        mutations=[("remove", "hi"), ("load", permit("hi", SPREAD[7]))],
    ),
    # A subject match on another attribute (a role) keyed as if it were
    # subject-id: the index buckets it, and placement hashes it, under
    # "admin", so no request carrying the role finds it.
    "role-subject-is-not-a-key": Script(
        [role_permit("admin", "admin", "weather0")],
        [*(with_role(Request.simple(subject, "weather0")) for subject in SPREAD),
         with_role(add_value(Request(), RESOURCE, "weather0")),
         Request.simple("admin", "weather0")],
        mutations=[("update", role_permit("admin", "ops", "weather0")),
                   ("load", role_permit("ops", "admin"))],
    ),
    # A combining switch answered from the old algorithm's cached
    # decisions (a pool's algorithm is fixed when it is built).
    "combining-switch": Script(
        [permit("pp", resource="res0"), permit("pd", resource="res0", effect=Effect.DENY)],
        [Request.simple("alice", "res0")],
        mutations=[("combining", "deny-overrides")],
    ),
}

PINNED = [
    (script, name)
    for script in MUTANTS for name in AXIS
    if name in IN_PROCESS or "combining" not in dict(MUTANTS[script].mutations)
]


@pytest.mark.parametrize("script, name", PINNED)
def test_pinned_script(script, name):
    run_script([name], MUTANTS[script])


# -- the generator census ---------------------------------------------------------


def test_generator_census():
    """A silent generator is a broken harness.  The first scripts of the
    tier-1 draw must hold every request shape, a subject and a resource
    regex, every mutation kind and every decision; every member must run
    drawn scripts, and every pinned script every member it can reach."""
    tally = Counter()

    @seed(0)
    @settings(max_examples=CENSUS_SCRIPTS, phases=[Phase.generate], **SETTINGS)
    @given(script=scripts())
    def draw(script):
        tally.update(shape_of(request) for request in script.requests)
        tally.update(
            f"{match.category.name} regex"
            for policy in script.policies
            for alternative in policy.target.subjects + policy.target.resources
            for match in alternative if match.function_id == STRING_REGEXP_MATCH
        )
        tally.update(kind for kind, _ in script.mutations)
        tally.update(run_script([], script))  # the oracle's decisions

    draw()
    assert [shard_of(subject, 4) for subject in SUBJECTS] == [0, 1, 2, 3]
    assert [shard_of(subject, 2) for subject in SUBJECTS] == [0, 1, 0, 1]
    wanted = {*SHAPES, "SUBJECT regex", "RESOURCE regex", "load", "update", "remove"}
    wanted |= {"Permit", "Deny", "NotApplicable"}
    assert wanted - set(tally) == set()
    assert sorted(IN_PROCESS + POOLS) == sorted(AXIS) and POOLS and EXAMPLES and POOL_EXAMPLES
    assert {name for _, name in PINNED} == set(AXIS)
    assert {script for script, _ in PINNED} == set(MUTANTS)
    assert {name for script, name in PINNED if script == "combining-switch"} == set(IN_PROCESS)
