"""Differential tests: a PEP that remembers compiled grants ≡ one that
compiles every grant afresh.

``PolicyEnforcementPoint`` keeps a content-keyed memo of
:class:`~repro.core.pep.GrantTemplate` and stamps every grant from a
template.  The oracle is the same PEP with its memo emptied before every
request — every grant is then compiled by the calls a PEP without a
memo would make.  Both sides see the same generated sequence of
(obligations, stream, user query, subject) grants *with repeats* —
built from fresh, equal-valued objects each time, so a hit depends on
value equality and hashing, never on identity — interleaved with
releases and ``allow_partial_results`` flips, and must agree after every
step on the registered graph, its name, the StreamSQL text, the
warnings and the raised error's type and message (NR, PR both ways,
stream mismatch, unknown attribute, malformed obligation).  At the end
one batch is pushed and every live query's output must equal that of
its merged graph registered alone on ``StreamEngine.reference()``.

Decisions ride in through ``handle_request(pdp_response=...)`` — the
seam for decisions evaluated elsewhere — so the property controls
obligations and policy ids independently (two policies with one
obligation set share a template; one policy id whose obligations
change must not).

The harness is mutation-checked in place: a memo whose key forgets the
user query, the stream, the source schema or the merge options must
make it fail.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access_registry import AccessRegistry
from repro.core.merge import MergeOptions
from repro.core.obligations import (
    FILTER_CONDITION_ID,
    FILTER_OBLIGATION,
    WINDOW_OBLIGATION,
    graph_to_obligations,
)
from repro.core.pep import PolicyEnforcementPoint
from repro.core.user_query import UserQuery
from repro.errors import ReproError
from repro.obs import Memo
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import DataType, Schema
from repro.xacml.attributes import AttributeValue
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.response import (
    AttributeAssignment,
    Decision,
    Effect,
    Obligation,
    Response,
)

FULL = [("t", DataType.TIMESTAMP), ("x", DataType.INT), ("y", DataType.INT)]
#: ``s0`` / ``s1`` differ in name only, ``w`` lacks ``y``.
STREAMS = {"s0": FULL, "s1": FULL, "w": FULL[:2]}

FILTERS = (None, "x > 5", "x > 5 AND y < 3", "y = 1 OR x >= 9")
MAPS = (None, ("t", "x", "y"), ("t", "x"))
WINDOWS = (
    None,
    (WindowSpec(WindowType.TUPLE, 4, 2), ("t:lastval", "x:avg", "y:max")),
    (WindowSpec(WindowType.TUPLE, 3, 3), ("x:sum",)),
)
#: User-side parts: tighter, looser (PR), contradictory (NR), disjoint
#: projections and finer windows (impossible merges, reported as NR).
USER_FILTERS = (None, "x > 8", "x > 3", "x < 2", "y = 1")
USER_MAPS = ((), ("t", "x"), ("y",))
USER_WINDOWS = (
    None,
    (WindowSpec(WindowType.TUPLE, 8, 4), ("x:avg",)),
    (WindowSpec(WindowType.TUPLE, 2, 1), ("x:avg",)),
    (WindowSpec(WindowType.TUPLE, 6, 6), ("x:sum", "y:max")),
)

BROKEN_OBLIGATIONS = (
    (Obligation(WINDOW_OBLIGATION, Effect.PERMIT, []),),
    (Obligation(FILTER_OBLIGATION, Effect.PERMIT, [
        AttributeAssignment(FILTER_CONDITION_ID, AttributeValue.string("x >")),
    ]),),
)


def build_obligations(spec):
    """Fresh obligation objects for *spec* — equal in value, never in
    identity, to those of an earlier step with the same spec."""
    if isinstance(spec, int):
        return BROKEN_OBLIGATIONS[spec]
    condition, attributes, window = spec
    graph = QueryGraph("policy-side")
    if condition is not None:
        graph.append(FilterOperator(condition))
    if attributes is not None:
        graph.append(MapOperator(attributes))
    if window is not None:
        graph.append(AggregateOperator(window[0], [AggregationSpec.parse(a) for a in window[1]]))
    return tuple(graph_to_obligations(graph))


def build_user_query(spec, stream):
    if spec is None:
        return None
    condition, attributes, window = spec
    if window is None:
        return UserQuery(stream, condition, attributes)
    return UserQuery(stream, condition, attributes, window[0], window[1])


obligation_specs = st.tuples(
    st.sampled_from(FILTERS), st.sampled_from(MAPS), st.sampled_from(WINDOWS)
)
user_query_specs = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(USER_FILTERS),
        st.sampled_from(USER_MAPS),
        st.sampled_from(USER_WINDOWS),
    ),
)


@st.composite
def sequences(draw):
    """Steps over small pools, so the same grant recurs within a run."""
    policies = draw(st.lists(obligation_specs, min_size=1, max_size=3))
    policies += draw(st.sampled_from(([], [], [0], [1])))   # a malformed one, sometimes
    queries = draw(st.lists(user_query_specs, min_size=1, max_size=3))
    grants = st.tuples(
        st.just("grant"),
        st.integers(min_value=0, max_value=len(policies) - 1),
        st.integers(min_value=0, max_value=len(queries) - 1),
        st.sampled_from(("s0", "s0", "s0", "s1", "w")),
        st.sampled_from(("alice", "bob")),
        st.booleans(),                      # allow_partial_results
        st.sampled_from((None,) * 7 + ("s1",)),     # the user query's stream, if another
    )
    releases = st.tuples(st.just("release"), st.integers(min_value=0, max_value=30))
    steps = draw(st.lists(st.one_of(grants, grants, grants, releases), min_size=4, max_size=16))
    return policies, queries, steps


def make_engine(engine=None):
    engine = engine if engine is not None else StreamEngine()
    for name, fields in STREAMS.items():
        engine.register_input_stream(name, Schema(name, fields))
    return engine


def make_pep(engine, enforce=False):
    return PolicyEnforcementPoint(
        PolicyDecisionPoint(), engine, access_registry=AccessRegistry(enforce=enforce)
    )


def grant(pep, obligations, policy_id, stream, user_query, subject):
    """One request's observable outcome, and the result when granted."""
    try:
        result = pep.handle_request(
            Request.simple(subject, stream),
            user_query,
            pdp_response=Response(Decision.PERMIT, obligations, policy_id=policy_id),
        )
    except ReproError as error:
        conflicts = [repr(w) for w in getattr(error, "conflicts", None) or ()]
        return ("refused", type(error).__name__, str(error), conflicts), None
    query = pep.engine.lookup(result.handle)
    return (
        "granted",
        result.merged_graph.name,
        result.merged_graph.describe(),
        result.streamsql,
        [repr(w) for w in result.warnings],
        query.output_schema,
    ), result


def records(count=40):
    return [{"t": n, "x": (n * 7) % 13, "y": (n * 5) % 4} for n in range(count)]


def run_sequence(policies, queries, steps, memo=None):
    """Drive both PEPs through *steps*; see the module docstring.
    *memo*, if given, makes the remembering PEP's memo from the PEP."""
    remembering = make_pep(make_engine())
    if memo is not None:
        remembering.templates = memo(remembering)
    forgetting = make_pep(make_engine())
    oracle = make_engine(StreamEngine.reference())
    live = []       # (remembering result, forgetting result, oracle handle)
    for step in steps:
        if step[0] == "release":
            if live:
                ours, theirs, alone = live.pop(step[1] % len(live))
                remembering.release(ours.handle)
                forgetting.release(theirs.handle)
                oracle.withdraw(alone)
            continue
        _, policy, query, stream, subject, allow, other = step
        remembering.allow_partial_results = forgetting.allow_partial_results = allow
        forgetting.templates.clear()
        outcomes = [
            grant(pep, build_obligations(policies[policy]), f"p{policy}", stream,
                  build_user_query(queries[query], other or stream), subject)
            for pep in (remembering, forgetting)
        ]
        assert outcomes[0][0] == outcomes[1][0]
        if outcomes[0][1] is not None:
            # The oracle runs what the memo-less side compiled, alone.
            alone = oracle.register_query(outcomes[1][1].merged_graph)
            live.append((outcomes[0][1], outcomes[1][1], alone))
    assert forgetting.templates.hits == 0
    batch = records()
    for engine in (remembering.engine, forgetting.engine, oracle):
        engine.push_batch("s0", batch)
        engine.push_batch("s1", batch)
        engine.push_batch("w", [{"t": r["t"], "x": r["x"]} for r in batch])
    for ours, theirs, alone in live:
        expected = [t.values for t in oracle.read(alone)]
        assert [t.values for t in remembering.engine.read(ours.handle)] == expected
        assert [t.values for t in forgetting.engine.read(theirs.handle)] == expected
    return remembering


#: Example budget: the PR suites keep the default; the nightly
#: ``fuzz-deep`` job raises it under the existing ``FUZZ_LONG=1``.
EXAMPLES = 500 if os.environ.get("FUZZ_LONG") else 80


class ForgetfulKeyMemo(Memo):
    """The mutant: a memo that ignores one element of the grant key
    (it compiles from the whole key, and files the result without it)."""

    def __init__(self, pep, dropped: int):
        super().__init__(lambda cut: pep._compile(self.key), lambda cut, template: 1)
        self.dropped = dropped

    def get(self, key):
        self.key = key
        return super().get(key[:self.dropped] + key[self.dropped + 1:])


def forgetful(dropped: int):
    return lambda pep: ForgetfulKeyMemo(pep, dropped)


#: Positions in ``handle_request``'s key.
STREAM_NAME, SOURCE_SCHEMA, USER_QUERY, MERGE_OPTIONS = 1, 2, 3, 4

BARE = ("x > 5", None, None)
TWO_QUERIES = ([BARE], [None, ("x > 8", (), None)], [
    ("grant", 0, 0, "s0", "alice", True, None),
    ("grant", 0, 1, "s0", "alice", True, None),
])
TWO_STREAMS = ([BARE], [None], [
    ("grant", 0, 0, "s0", "alice", True, None),
    ("grant", 0, 0, "s1", "alice", True, None),
])


class TestGrantEquivalence:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(sequence=sequences())
    def test_remembered_grants_match_fresh_compiles(self, sequence):
        run_sequence(*sequence)

    def test_repeats_are_hits_and_refusals_store_nothing(self):
        """The property is only worth its name if its sequences repeat:
        pin one that does, and what the memo holds afterwards."""
        nr = ("x < 2", (), None)
        pep = run_sequence([BARE], [None, nr], [
            ("grant", 0, 0, "s0", "alice", True, None),
            ("grant", 0, 0, "s0", "bob", True, None),
            ("grant", 0, 1, "s0", "alice", True, None),
            ("grant", 0, 1, "s0", "alice", True, None),
            ("grant", 0, 0, "w", "alice", True, None),
        ])
        assert (pep.templates.hits, pep.templates.misses) == (1, 4)
        assert len(pep.templates) == 2    # (s0, bare) and (w, bare)

    def test_a_stored_pr_template_is_gated_on_every_request(self):
        looser = ("x > 3", (), None)
        pep = run_sequence([BARE], [looser], [
            ("grant", 0, 0, "s0", "alice", True, None),
            ("grant", 0, 0, "s0", "alice", False, None),
            ("grant", 0, 0, "s0", "alice", True, None),
        ])
        assert (pep.templates.hits, pep.templates.misses) == (2, 1)

    def test_one_policy_id_whose_obligations_change(self):
        tighter = ("x > 5 AND y < 3", None, None)
        run_sequence([BARE, tighter], [None], [
            ("grant", 0, 0, "s0", "alice", True, None),
            ("grant", 1, 0, "s0", "alice", True, None),
        ])

    @pytest.mark.parametrize("scenario, dropped", [
        (TWO_QUERIES, USER_QUERY),
        (TWO_STREAMS, STREAM_NAME),
    ])
    def test_the_harness_catches_a_key_that_forgets(self, scenario, dropped):
        run_sequence(*scenario)
        with pytest.raises(AssertionError):
            run_sequence(*scenario, memo=forgetful(dropped))


class TestKeyCoversWhatAPepMayBeReassigned:
    """No generated sequence varies these two.  The stream's name is in
    the key and within one engine a name has one schema for good: the
    schema is in the key for a PEP re-pointed at another engine, the
    merge options for one whose options are replaced (``pep.engine`` and
    ``pep.merge_options`` are plain attributes).  The merge reads the
    schema: the policy's aggregation over the stream's *timestamp*
    attribute survives a user query that omits it."""

    def regrant(self, memo=None):
        untimed = StreamEngine()
        untimed.register_input_stream(
            "s0", Schema("s0", [("t", DataType.INT)] + FULL[1:])
        )
        args = (
            build_obligations((None, None, WINDOWS[1])), "p", "s0",
            build_user_query((None, (), USER_WINDOWS[1]), "s0"), "alice",
        )
        pep = make_pep(make_engine())
        if memo is not None:
            pep.templates = memo(pep)
        timed, _ = grant(pep, *args)
        assert "lastval(t)" in timed[3]
        pep.engine = untimed
        assert grant(pep, *args)[0] == grant(make_pep(untimed), *args)[0] != timed

    def test_another_engines_schema_compiles_afresh(self):
        self.regrant()

    def test_the_check_catches_a_key_that_forgets_the_schema(self):
        with pytest.raises(AssertionError):
            self.regrant(forgetful(SOURCE_SCHEMA))

    def remerge(self, memo=None):
        args = (
            build_obligations((None, ("t", "x", "y"), None)), "p", "s0",
            build_user_query((None, ("t", "x"), None), "s0"), "alice",
        )
        pep = make_pep(make_engine())
        if memo is not None:
            pep.templates = memo(pep)
        pep.allow_partial_results = True    # the paper's rule: differing projections are PR
        narrow, _ = grant(pep, *args)
        pep.merge_options = MergeOptions(map_semantics="union")
        wide, _ = grant(pep, *args)
        assert "s0.y" in wide[3] and "s0.y" not in narrow[3]

    def test_replaced_merge_options_compile_afresh(self):
        self.remerge()

    def test_the_check_catches_a_key_that_forgets_the_options(self):
        with pytest.raises(AssertionError):
            self.remerge(forgetful(MERGE_OPTIONS))
