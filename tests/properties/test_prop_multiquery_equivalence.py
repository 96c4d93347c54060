"""Differential churn harness: shared-plan execution ≡ per-query.

The shared execution plan (:mod:`repro.streams.plan`) merges identical
operator prefixes across registered queries and feeds subsumed filters
from their subsuming hosts.  None of that sharing may be observable in
query outputs: under any interleaving of registration, withdrawal and
ingest, every query's output must equal what the seed per-query
interpreted engine (``StreamEngine.reference()``) produces.

The hypothesis harness drives random action sequences — register a
query from a template pool built for heavy prefix overlap (exact
duplicates and known implication pairs included), withdraw a random
live query, push a batch — against a shared engine (batched ingest) and
a reference engine (tuple-at-a-time ingest), then compares every
query's full drained output.  Two more action kinds make the same
changes *from inside a dispatch*: from a batch listener on the source
(attached before the first registration on both engines, so it fires
ahead of the plan's listener and of every oracle query's) and from a
batch listener on a live query's output; both engines are fed the same
batch for those, since the batch is what such a change is aligned to.
Afterwards it withdraws everything still live and asserts the plan's
node refcounts drained to zero: shared nodes must not leak when the
queries that shared them churn away.

Outputs compare with ``==``.  The template pool's aggregates are
min/max/count/median/lastval; avg/sum/stdev under the same churn are the
StreamSQL fuzzer's department, and compare exactly there too.
"""

import operator
import os

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.streams.schema import DataType, Field, Schema

SCHEMA = Schema(
    "s",
    [
        Field("t", DataType.TIMESTAMP),
        Field("x", DataType.DOUBLE),
        Field("y", DataType.DOUBLE),
        Field("tag", DataType.STRING),
    ],
)

#: Filter pool with deliberate implication structure: ``x > 20 AND
#: y < 5`` implies ``x > 10``, ``x > 20`` implies both ``x > 10`` and
#: ``x > 10 OR tag = 'a'`` — so registration order decides which node
#: hosts which, and subsumption feeds must stay output-invisible.
CONDITIONS = (
    "x > 10",
    "x > 10",  # exact duplicate: must merge, not just subsume
    "x > 20",
    "x > 20 AND y < 5",
    "x > 10 OR tag = 'a'",
    "tag = 'a'",
    "TRUE",
)

WINDOWS = ((WindowType.TUPLE, 3, 3), (WindowType.TUPLE, 4, 2), (WindowType.TIME, 5, 5))
EXACT_AGGS = ("x:min", "x:max", "x:count", "x:median", "t:lastval")


def _aggregate(window, specs):
    window_type, size, step = window
    return AggregateOperator(
        WindowSpec(window_type, size, step),
        [AggregationSpec.parse(spec) for spec in specs],
        time_attribute="t" if window_type is WindowType.TIME else None,
    )


def build_templates():
    """A pool of graph factories with ~80% prefix overlap by design."""
    templates = []
    for condition in CONDITIONS:
        # Filter-only, filter+map, filter+window: the map and window
        # tails diverge off shared filter prefixes.
        templates.append(lambda c=condition: QueryGraph("s", [FilterOperator(c)]))
        templates.append(
            lambda c=condition: QueryGraph(
                "s", [FilterOperator(c), MapOperator(["t", "x"])]
            )
        )
    for window in WINDOWS:
        templates.append(
            lambda w=window: QueryGraph(
                "s", [FilterOperator("x > 10"), _aggregate(w, EXACT_AGGS[:2])]
            )
        )
        # Same filter AND same window shape, different aggregation set:
        # shares the filter node but needs its own aggregate node.
        templates.append(
            lambda w=window: QueryGraph(
                "s", [FilterOperator("x > 10"), _aggregate(w, EXACT_AGGS[2:])]
            )
        )
    # Identical stateful chains registered twice share the aggregate
    # node only until it has consumed input (clone-on-divergence).
    templates.append(
        lambda: QueryGraph("s", [_aggregate((WindowType.TUPLE, 3, 3), EXACT_AGGS[:3])])
    )
    templates.append(lambda: QueryGraph("s", []))  # passthrough
    return templates


TEMPLATES = build_templates()


def record(index, value):
    return {
        "t": float(index),
        "x": float(value),
        "y": float(-value),
        "tag": "a" if value % 2 else "b",
    }


#: A change to the query set: applied between dispatches when it is an
#: action of its own, from inside one when a tap carries it.  ``twin``
#: registers the template of a live query again — the exact duplicate
#: that shares every node, stateful ones included.
registrations = st.tuples(st.just("register"), st.integers(0, len(TEMPLATES) - 1))
changes = st.one_of(
    registrations,
    st.tuples(st.just("twin"), st.integers(0, 63)),
    st.tuples(st.just("withdraw"), st.integers(0, 63)),
)
value = st.integers(min_value=-40, max_value=40)
values = st.lists(value, max_size=10)
some_values = st.lists(value, min_size=1, max_size=10)

#: A script opens with a few registrations — what a tap changes only
#: shows against queries that are already there — then churns.
scripts = st.builds(
    operator.add,
    st.lists(registrations, min_size=2, max_size=4),
    st.lists(
        st.one_of(
            changes,
            st.tuples(st.just("push"), values),
            # The change happens while the batch is being dispatched:
            # from a batch listener on the source (ahead of every
            # query), or on a live query's output.
            st.tuples(st.just("from-source"), st.tuples(changes, some_values)),
            st.tuples(
                st.just("from-output"),
                st.tuples(st.integers(0, 63), changes, some_values),
            ),
        ),
        max_size=24,
    ),
)

#: Example budget: the PR suites keep the default; the nightly
#: ``fuzz-deep`` job raises it under the existing ``FUZZ_LONG=1``.
EXAMPLES = 400 if os.environ.get("FUZZ_LONG") else 60


#: Pushed after every script: values every filter lets through, enough
#: of them to close a window of every shape — so state a query should
#: never have picked up (a batch it had to miss) shows in its output.
CLOSING = list(range(21, 33))


class Tap:
    """A batch listener carrying one change, made the first time it fires."""

    def __init__(self):
        self.change = None

    def __call__(self, batch):
        change, self.change = self.change, None
        if change is not None:
            change()


class Side:
    """One engine, its queries in registration order, and a tap on the
    source attached before the first registration — so it fires ahead of
    the plan's listener and of every oracle query's."""

    def __init__(self, engine):
        self.engine = engine
        self.tap = Tap()
        engine.register_input_stream("s", SCHEMA).add_batch_listener(self.tap)
        self.queries = []  # (handle, subscription)

    def apply(self, change):
        kind, payload = change
        if kind == "register":
            handle = self.engine.register_query(TEMPLATES[payload]())
            self.queries.append((handle, self.engine.subscribe(handle)))
        else:
            self.engine.withdraw(self.queries[payload][0])

    def push_with(self, change, batch, host=None):
        """Push *batch*; *change* is made from inside its dispatch, by
        the source tap or (with *host*) by a tap on that query's output.
        Returns whether the tap fired."""
        tap, output = self.tap, None
        if host is not None:
            tap, output = Tap(), self.engine.lookup(self.queries[host][0]).output
            output.add_batch_listener(tap)
        tap.change = lambda: self.apply(change)
        self.engine.push_batch("s", batch)
        fired, tap.change = tap.change is None, None
        if output is not None:
            output.remove_batch_listener(tap)
        return fired


def run_script(script):
    """Drive both engines through *script*; compare every query's whole
    output; then withdraw what is left and check the plan drained."""
    shared, reference = sides = Side(StreamEngine()), Side(StreamEngine.reference())
    templates = []  # per registered query, registration order
    live = []  # indices into `templates` (and each side's `queries`)
    clock = 0

    def resolve(change):
        """*change* with its query named: a template to register or the
        index of the victim; None when it needs a live query and none is."""
        kind, payload = change
        if kind == "register":
            return change
        if not live:
            return None
        index = live[payload % len(live)]
        return ("register", templates[index]) if kind == "twin" else (kind, index)

    def account(change):
        kind, payload = change
        if kind == "register":
            live.append(len(templates))
            templates.append(payload)
        else:
            live.remove(payload)

    def batch_of(numbers):
        nonlocal clock
        clock += len(numbers)
        return [record(clock - len(numbers) + i, v) for i, v in enumerate(numbers)]

    for action, payload in list(script) + [("push", CLOSING)]:
        if action == "push":
            batch = batch_of(payload)
            shared.engine.push_batch("s", batch)
            for row in batch:
                reference.engine.push("s", row)
            continue
        if action not in ("from-source", "from-output"):
            change = resolve((action, payload))
            if change is not None:
                for side in sides:
                    side.apply(change)
                account(change)
            continue
        # A change from inside the dispatch: both engines get the same
        # batch, because a batch is what a tap's change is aligned to.
        if action == "from-source":
            host, (change, numbers) = None, payload
        elif live:
            host, change, numbers = payload
            host = live[host % len(live)]
        else:
            continue
        change = resolve(change)
        if change is None:
            continue
        batch = batch_of(numbers)
        fired = [side.push_with(change, batch, host) for side in sides]
        assert fired[0] == fired[1], "the tap fired on one engine only"
        if fired[0]:
            account(change)

    assert len(shared.queries) == len(reference.queries) == len(templates)
    for index, ((_, got), (_, expected)) in enumerate(
        zip(shared.queries, reference.queries)
    ):
        assert [t.values for t in got.drain()] == [
            t.values for t in expected.drain()
        ], f"query #{index} diverged"

    # -- refcount accounting must drain to zero ------------------------
    for side in sides:
        engine = side.engine
        assert engine.total_registered == len(templates)
        assert engine.total_withdrawn == len(templates) - len(live)
        assert engine.active_query_count == len(live)
    for index in live:
        for side in sides:
            side.apply(("withdraw", index))
    assert shared.engine.active_query_count == 0
    for stats in shared.engine.plan_stats().values():
        assert stats["queries"] == 0
        assert stats["live_nodes"] == 0
    assert reference.engine.plan_stats() == {}


PASSTHROUGH = len(TEMPLATES) - 1
BARE_WINDOW = len(TEMPLATES) - 2  # tuple window 3/3 straight off the source

#: One script per way of getting re-entrant dispatch wrong in
#: ``StreamPlan``.  Each mutant was made on a scratch copy and fails the
#: property below (at the ``FUZZ_LONG`` budget) and its script here.
MUTANTS = {
    # `_on_batch` delivers to a sink registered while the batch was in flight.
    "newcomer-sink-gets-the-batch": [
        ("register", PASSTHROUGH),
        ("from-source", (("register", PASSTHROUGH), [1, 2])),
    ],
    # `_on_batch` runs the batch through a node created while it was in flight.
    "newcomer-node-consumes-the-batch": [
        ("register", PASSTHROUGH),
        ("from-source", (("register", BARE_WINDOW), [1, 2])),
    ],
    # The sweep delivers to a sink deactivated earlier in the same sweep.
    "withdrawn-sink-still-delivered": [
        ("register", PASSTHROUGH),
        ("register", PASSTHROUGH),
        ("from-output", (0, ("withdraw", 1), [5])),
    ],
    # `_child_for` shares an untouched window with a query that must miss
    # the batch the window is about to consume (wrong at PR 21 too).
    "untouched-window-shared-mid-dispatch": [
        ("register", BARE_WINDOW),
        ("from-source", (("twin", 0), [1, 2])),
    ],
}


class TestSharedPlanChurnEquivalence:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(script=scripts)
    def test_shared_matches_reference_under_churn(self, script):
        run_script(script)

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_regression_script_per_mutant(self, mutant):
        run_script(MUTANTS[mutant])

    def test_template_pool_actually_shares(self):
        """The harness is only a sharing test if the pool shares: when
        every template registers once, merged + subsumed nodes must be
        a large fraction of what per-query planning would build."""
        engine = StreamEngine()
        engine.register_input_stream("s", SCHEMA)
        for template in TEMPLATES:
            engine.register_query(template())
        engine.push_batch("s", [record(i, i % 30) for i in range(40)])
        (stats,) = engine.plan_stats().values()
        assert stats["queries"] == len(TEMPLATES)
        total_operators = sum(len(template()) for template in TEMPLATES)
        assert stats["nodes_created"] < total_operators * 2 // 3
        assert stats["nodes_shared"] >= 12
        assert stats["nodes_subsumed"] >= 2
