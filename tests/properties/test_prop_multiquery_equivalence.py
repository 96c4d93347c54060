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
query's full drained output.  Afterwards it withdraws everything still
live and asserts the plan's node refcounts drained to zero: shared
nodes must not leak when the queries that shared them churn away.

Outputs compare with ``==``.  The template pool's aggregates are
min/max/count/median/lastval; avg/sum/stdev under the same churn are the
StreamSQL fuzzer's department, and compare exactly there too.
"""

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


actions = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.integers(0, len(TEMPLATES) - 1)),
        st.tuples(st.just("withdraw"), st.integers(0, 63)),
        st.tuples(
            st.just("push"),
            st.lists(st.integers(min_value=-40, max_value=40), max_size=10),
        ),
    ),
    min_size=1,
    max_size=24,
)


class TestSharedPlanChurnEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(script=actions)
    def test_shared_matches_reference_under_churn(self, script):
        shared = StreamEngine()
        reference = StreamEngine.reference()
        for engine in (shared, reference):
            engine.register_input_stream("s", SCHEMA)

        registered = []  # (shared_sub, reference_sub), registration order
        live = []  # indices into `registered`
        clock = 0
        for action, payload in script:
            if action == "register":
                graph = TEMPLATES[payload]()
                subs = []
                for engine in (shared, reference):
                    handle = engine.register_query(graph.fresh_copy())
                    subs.append((handle, engine.subscribe(handle)))
                live.append(len(registered))
                registered.append(tuple(subs))
            elif action == "withdraw":
                if not live:
                    continue
                index = live.pop(payload % len(live))
                for engine, (handle, _) in zip(
                    (shared, reference), registered[index]
                ):
                    engine.withdraw(handle)
            else:
                batch = [record(clock + i, v) for i, v in enumerate(payload)]
                clock += len(payload)
                shared.push_batch("s", batch)
                for row in batch:
                    reference.push("s", row)

        for index, (shared_q, reference_q) in enumerate(registered):
            got = [t.values for t in shared_q[1].drain()]
            expected = [t.values for t in reference_q[1].drain()]
            assert got == expected, f"query #{index} diverged"

        # -- satellite: refcount accounting must drain to zero --------
        for engine in (shared, reference):
            assert engine.total_registered == len(registered)
            assert engine.total_withdrawn == len(registered) - len(live)
            assert engine.active_query_count == len(live)
            assert (
                engine.total_registered - engine.total_withdrawn
                == engine.active_query_count
            )
        for index in list(live):
            for engine, (handle, _) in zip((shared, reference), registered[index]):
                engine.withdraw(handle)
        assert shared.active_query_count == 0
        for stats in shared.plan_stats().values():
            assert stats["queries"] == 0
            assert stats["live_nodes"] == 0
        assert reference.plan_stats() == {}

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
