"""Unit tests for the shared execution plan (repro.streams.plan).

The differential harness (`tests/properties/test_streams_equivalence.py`)
proves plan ≡ oracle on whole workloads; these tests pin the plan's
*mechanics*: fingerprint canonicalization, prefix merging, one feed
per node, clone-on-divergence for touched stateful nodes, and refcounted
node release —
and that sharing is invisible *exactly*: one engine holding N queries ≡
N engines holding one query each, bit for bit.
"""

import gc
import random
import weakref

import pytest

from repro.expr.parser import parse_condition
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
from repro.errors import UnknownAttributeError
from repro.streams.plan import (
    CANON_LEAF_LIMIT,
    condition_fingerprint,
    operator_fingerprint,
    trace_chain,
)
from repro.streams.schema import Schema
from repro.streams.tuples import make_tuple

SCHEMA = Schema("s", [("t", "timestamp"), ("x", "double"), ("y", "double")])


def fingerprint(text):
    return condition_fingerprint(parse_condition(text))


def tuple_agg(size, step, specs=("x:sum",)):
    return AggregateOperator(
        WindowSpec(WindowType.TUPLE, size, step),
        [AggregationSpec.parse(spec) for spec in specs],
    )


class TestConditionFingerprint:
    def test_commuted_conjunction_same_key(self):
        assert fingerprint("x > 10 AND y < 5") == fingerprint("y < 5 AND x > 10")

    def test_commuted_disjunction_same_key(self):
        assert fingerprint("x > 10 OR y < 5") == fingerprint("y < 5 OR x > 10")

    def test_redundant_literal_dropped(self):
        # x > 20 implies x > 10, so the weaker literal is simplified away.
        assert fingerprint("x > 20 AND x > 10") == fingerprint("x > 20")

    def test_unsatisfiable_conjunction_dropped(self):
        assert fingerprint("(x > 10 AND x < 0) OR y < 5") == fingerprint("y < 5")

    def test_true_and_contradiction_keys(self):
        assert fingerprint("TRUE") == ("true",)
        assert fingerprint("x > 10 OR TRUE") == ("true",)
        assert fingerprint("x > 1 AND x < 0")[0] == "false"

    def test_different_conditions_differ(self):
        assert fingerprint("x > 10") != fingerprint("x >= 10")
        assert fingerprint("x > 10") != fingerprint("y > 10")

    def test_leaf_limit_falls_back_to_raw(self):
        # DNF of (a OR b) * n explodes exponentially; past the leaf
        # budget the key degrades to the literal condition string
        # (still sound: equal strings are equal conditions).
        clause = " AND ".join(
            f"(x > {i} OR y < {i})" for i in range(CANON_LEAF_LIMIT)
        )
        key = fingerprint(clause)
        assert key[0] == "raw"


class TestOperatorFingerprint:
    def test_filter_key_is_condition_canonical(self):
        a = operator_fingerprint(FilterOperator("x > 10 AND y < 5"))
        b = operator_fingerprint(FilterOperator("y < 5 AND x > 10"))
        assert a == b

    def test_map_key_order_insensitive(self):
        # Schema.project orders output by the input schema, so the
        # attribute list's order is cosmetic.
        assert operator_fingerprint(MapOperator(["t", "x"])) == operator_fingerprint(
            MapOperator(["x", "t"])
        )
        assert operator_fingerprint(MapOperator(["t"])) != operator_fingerprint(
            MapOperator(["x", "t"])
        )

    def test_aggregate_key_preserves_spec_order(self):
        # Aggregation order fixes the output schema's field order.
        a = operator_fingerprint(tuple_agg(3, 3, ("x:sum", "x:count")))
        b = operator_fingerprint(tuple_agg(3, 3, ("x:count", "x:sum")))
        assert a != b
        assert operator_fingerprint(tuple_agg(3, 3)) == operator_fingerprint(
            tuple_agg(3, 3)
        )
        assert operator_fingerprint(tuple_agg(3, 3)) != operator_fingerprint(
            tuple_agg(3, 2)
        )

    def test_unknown_operator_never_shares(self):
        class AuditedFilter(FilterOperator):
            pass

        assert operator_fingerprint(AuditedFilter("x > 0")) is None


class TestPlanSharing:
    def engine(self):
        engine = StreamEngine()
        engine.register_input_stream("s", SCHEMA)
        return engine

    def rows(self, values):
        return [
            {"t": float(i), "x": float(v), "y": float(-v)}
            for i, v in enumerate(values)
        ]

    def stats(self, engine):
        (stats,) = engine.plan_stats().values()
        return stats

    def test_identical_prefixes_merge(self):
        engine = self.engine()
        for _ in range(3):
            engine.register_query(
                QueryGraph("s", [FilterOperator("x > 10"), MapOperator(["t", "x"])])
            )
        stats = self.stats(engine)
        assert stats["nodes_created"] == 2  # one filter + one map, total
        assert stats["nodes_shared"] == 4

    def test_tighter_filter_feeds_from_its_chain_parent(self):
        engine = self.engine()
        weak = engine.register_query(QueryGraph("s", [FilterOperator("x > 10")]))
        tighter = FilterOperator("x > 20 AND y < 5")
        strong = engine.register_query(QueryGraph("s", [tighter]))
        # x > 20 AND y < 5 implies x > 10, yet the tighter filter scans
        # the source itself with its own condition: every node consumes
        # its chain parent.
        query = engine.lookup(strong)
        assert query.node.feed is query.plan.root
        assert query.node.operator is tighter
        assert self.stats(engine)["nodes_subsumed"] == 0
        engine.push_batch("s", self.rows([5, 15, 25, -25]))
        assert [t["x"] for t in engine.read(weak)] == [15.0, 25.0]
        # y = -x, so x=25 has y=-25 < 5: only that row passes.
        assert [t["x"] for t in engine.read(strong)] == [25.0]

    def test_looser_filter_withdrawal_keeps_tighter_correct(self):
        engine = self.engine()
        weak = engine.register_query(QueryGraph("s", [FilterOperator("x > 10")]))
        strong = engine.register_query(QueryGraph("s", [FilterOperator("x > 20")]))
        engine.withdraw(weak)
        engine.push_batch("s", self.rows([15, 25]))
        assert [t["x"] for t in engine.read(strong)] == [25.0]
        # The looser filter's node goes with its query: nothing feeds
        # from it...
        assert self.stats(engine)["live_nodes"] == 1
        # ...and the tighter one's is released when its query goes too.
        engine.withdraw(strong)
        assert self.stats(engine)["live_nodes"] == 0

    def test_stateless_nodes_share_after_consuming(self):
        engine = self.engine()
        first = engine.register_query(QueryGraph("s", [FilterOperator("x > 10")]))
        engine.push_batch("s", self.rows([5, 15]))
        late = engine.register_query(QueryGraph("s", [FilterOperator("x > 10")]))
        assert self.stats(engine)["nodes_created"] == 1
        engine.push_batch("s", self.rows([25]))
        assert [t["x"] for t in engine.read(first)] == [15.0, 25.0]
        # The late query shares the touched filter node but must not
        # see tuples pushed before it registered.
        assert [t["x"] for t in engine.read(late)] == [25.0]

    def test_touched_aggregate_clones_instead_of_sharing(self):
        engine = self.engine()
        first = engine.register_query(QueryGraph("s", [tuple_agg(3, 3)]))
        engine.push_batch("s", self.rows([1, 2]))  # partial window buffered
        late = engine.register_query(QueryGraph("s", [tuple_agg(3, 3)]))
        # Sharing the half-full window would leak the first query's
        # history into the late one: a fresh clone is required.
        assert self.stats(engine)["nodes_created"] == 2
        engine.push_batch("s", self.rows([3, 4, 5]))
        assert [t["sumx"] for t in engine.read(first)] == [6.0]  # 1+2+3
        assert [t["sumx"] for t in engine.read(late)] == [12.0]  # 3+4+5

    def test_untouched_aggregate_shares(self):
        engine = self.engine()
        first = engine.register_query(QueryGraph("s", [tuple_agg(3, 3)]))
        second = engine.register_query(QueryGraph("s", [tuple_agg(3, 3)]))
        assert self.stats(engine)["nodes_created"] == 1
        assert self.stats(engine)["nodes_shared"] == 1
        engine.push_batch("s", self.rows([1, 2, 3]))
        assert [t["sumx"] for t in engine.read(first)] == [6.0]
        assert [t["sumx"] for t in engine.read(second)] == [6.0]

    def test_divergent_tails_fan_out_off_shared_prefix(self):
        engine = self.engine()
        mapped = engine.register_query(
            QueryGraph("s", [FilterOperator("x > 10"), MapOperator(["x"])])
        )
        aggregated = engine.register_query(
            QueryGraph("s", [FilterOperator("x > 10"), tuple_agg(2, 2)])
        )
        stats = self.stats(engine)
        assert stats["nodes_created"] == 3  # filter + map + aggregate
        assert stats["nodes_shared"] == 1  # the second query's filter
        engine.push_batch("s", self.rows([5, 20, 30]))
        assert [t.values for t in engine.read(mapped)] == [(20.0,), (30.0,)]
        assert [t["sumx"] for t in engine.read(aggregated)] == [50.0]

    def test_registration_from_a_tap_misses_the_inflight_batch(self):
        """A query registered from a batch listener on the source sees
        nothing of the batch in flight — exactly like the oracle, where
        the new batch listener is outside the dispatch snapshot."""
        results = {}
        for side, make_engine in (
            ("plan", StreamEngine), ("oracle", StreamEngine.reference)
        ):
            engine = make_engine()
            engine.register_input_stream("s", SCHEMA)
            box = {}

            def register_on_marker(batch, engine=engine, box=box):
                if any(tup["x"] == 99.0 for tup in batch) and "handle" not in box:
                    box["handle"] = engine.register_query(
                        QueryGraph("s", [FilterOperator("x > 0")])
                    )

            engine.catalog.get("s").add_batch_listener(register_on_marker)
            # The plan (and its listener) exists before the tap fires.
            engine.register_query(QueryGraph("s", [FilterOperator("x > 0")]))
            engine.push_batch("s", self.rows([1, 99, 3]))
            engine.push_batch("s", self.rows([4, 5]))
            results[side] = [t["x"] for t in engine.read(box["handle"])]
        assert results["plan"] == results["oracle"] == [4.0, 5.0]

    def test_a_tap_between_two_registrations_is_where_sharing_shows(self):
        """The boundary of "sharing is invisible": the plan's one
        listener sits where the stream's *first* registration put it, so
        a foreign listener attached between two registrations fires
        between those queries in the oracle but after both in the plan —
        the query it withdraws has already had the batch.  Control hooks
        belong before the first registration, or on output streams."""
        results = {}
        for side, make_engine in (
            ("plan", StreamEngine), ("oracle", StreamEngine.reference)
        ):
            engine = make_engine()
            engine.register_input_stream("s", SCHEMA)
            box = {}

            def withdraw_the_later_query(batch, engine=engine, box=box):
                engine.withdraw(box["later"])

            engine.register_query(QueryGraph("s", [FilterOperator("x > 0")]))
            engine.catalog.get("s").add_batch_listener(withdraw_the_later_query)
            box["later"] = engine.register_query(QueryGraph("s", [FilterOperator("x > 0")]))
            subscription = engine.subscribe(box["later"])
            engine.push_batch("s", self.rows([5, 6]))
            results[side] = [t["x"] for t in subscription.drain()]
        assert results == {"oracle": [], "plan": [5.0, 6.0]}

    def test_oracle_engine_builds_no_plans(self):
        engine = StreamEngine.reference()
        engine.register_input_stream("s", SCHEMA)
        engine.register_query(QueryGraph("s", [FilterOperator("x > 0")]))
        assert engine.plan_stats() == {}


class Batch(list):
    """A list a test can hold a weak reference to."""


class TestNothingOutlivesTheDispatch:
    """Once ``append_batch`` on the source has returned, nothing of that
    dispatch is left: the stream has none in flight and no plan node or
    sink keeps the batch alive.  A query registered where the plan's
    sweep could no longer consume its marker — from a listener on a live
    query's output, or on the source behind the plan's own — used to pin
    the batch, and slow every later dispatch, for its lifetime."""

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("where", ["output", "source"])
    def test_a_query_registered_where_the_sweep_has_passed(self, where, raises):
        engine = StreamEngine()
        source = engine.register_input_stream("s", SCHEMA)
        first = engine.register_query(QueryGraph("s", [FilterOperator("x > 0")]))
        box = {}

        def register_once(batch):
            if "handle" not in box:
                box["handle"] = engine.register_query(
                    QueryGraph("s", [FilterOperator("x > 1"), tuple_agg(2, 2)])
                )
                if raises:
                    raise RuntimeError("listener failed")

        tapped = engine.lookup(first).output if where == "output" else source
        tapped.add_batch_listener(register_once)

        def dispatch(values):
            batch = Batch(
                make_tuple(SCHEMA, {"t": float(v), "x": float(v), "y": 0.0})
                for v in values
            )
            gone = weakref.ref(batch)
            try:
                source.append_batch(batch)
            except RuntimeError:
                assert raises
            del batch
            gc.collect()
            assert gone() is None, "the batch outlived its dispatch"
            assert source._inflight is None

        dispatch(range(2, 27))
        newcomer = box["handle"]
        assert engine.read(newcomer) == []  # missed exactly the batch in flight
        for values in ((30, 31), (32,), (33,)):
            dispatch(values)
        assert [t["sumx"] for t in engine.read(newcomer)] == [61.0, 65.0]
        assert len(engine.read(first)) == 29
        engine.withdraw(newcomer)
        engine.withdraw(first)
        assert engine.plan_stats()["s"]["live_nodes"] == 0


class TestAttachCost:
    """Count-based, clock-free: what an attach normalises and derives
    does not depend on who is already in the plan, and a traced graph is
    neither validated nor fingerprinted again."""

    @staticmethod
    def counting(monkeypatch, name):
        import repro.streams.plan as plan_module

        calls = []
        original = getattr(plan_module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(plan_module, name, counted)
        return calls

    @pytest.mark.parametrize("siblings", [10, 500])
    def test_one_more_traced_filter_normalises_nothing_whatever_the_siblings(
        self, monkeypatch, siblings
    ):
        engine = StreamEngine()
        engine.register_input_stream("s", SCHEMA)
        for n in range(siblings):
            # The newcomer implies the n = 3 sibling and still scans the
            # source: nothing compares it with any sibling.
            engine.register_query(
                QueryGraph("s", [FilterOperator(f"x > {n} AND y < {n % 7}")])
            )
        newcomer = QueryGraph("s", [FilterOperator("x > 3 AND y < 3 AND t > 0")])
        newcomer.trace = trace_chain(newcomer, SCHEMA)
        normalised = self.counting(monkeypatch, "to_dnf")
        handle = engine.register_query(newcomer)
        (stats,) = engine.plan_stats().values()
        assert stats["nodes_created"] == siblings + 1
        query = engine.lookup(handle)
        assert query.node.feed is query.plan.root
        assert len(normalised) == 0

    def test_a_traced_graph_is_not_derived_again(self, monkeypatch):
        engine = StreamEngine()
        engine.register_input_stream("s", SCHEMA)
        graph = QueryGraph("s", [FilterOperator("x > 10"), MapOperator(["t", "x"])])
        trace = trace_chain(graph, SCHEMA)
        fingerprinted = self.counting(monkeypatch, "operator_fingerprint")
        engine.register_query(graph)
        assert len(fingerprinted) == 2           # untraced: derived on attach
        del fingerprinted[:]
        stamped = QueryGraph("s", graph.operators, name="stamped")
        stamped.trace = trace
        handle = engine.register_query(stamped)
        assert fingerprinted == []
        (stats,) = engine.plan_stats().values()
        assert (stats["nodes_created"], stats["nodes_shared"]) == (2, 2)
        assert engine.lookup(handle).output_schema == trace.schemas[-1]

    def test_append_drops_the_trace(self):
        graph = QueryGraph("s", [FilterOperator("x > 10")])
        graph.trace = trace_chain(graph, SCHEMA)
        graph.append(MapOperator(["t"]))
        assert graph.trace is None
        engine = StreamEngine()
        engine.register_input_stream("s", SCHEMA)
        handle = engine.register_query(graph)
        assert engine.lookup(handle).output_schema.attribute_names == ("t",)

    def test_a_trace_against_another_schema_is_not_trusted(self):
        """Same field list, another schema object — another stream: the
        plan only skips validation for the very schema it runs on."""
        graph = QueryGraph("s", [MapOperator(["t", "y"])])
        graph.trace = trace_chain(graph, SCHEMA)
        engine = StreamEngine()
        narrow = Schema("s", [("t", "timestamp"), ("x", "double")])
        engine.register_input_stream("s", narrow)
        with pytest.raises(UnknownAttributeError):
            engine.register_query(graph)
        assert engine.plan_stats()["s"]["live_nodes"] == 0


def float_agg(size, step):
    """avg/sum/stdev over doubles: the aggregates whose float
    arithmetic a sharing bug would perturb."""
    return tuple_agg(size, step, ("x:avg", "x:sum", "x:stdev", "y:avg"))


TEMPLATES = (
    lambda: QueryGraph("s", [FilterOperator("x > 10"), float_agg(8, 2)]),
    lambda: QueryGraph(
        "s", [FilterOperator("x > 10"), float_agg(8, 2), MapOperator(["avgx"])]
    ),
    # Subsumed by ``x > 10``: fed from the host filter's output.
    lambda: QueryGraph("s", [FilterOperator("x > 20"), float_agg(5, 1)]),
    lambda: QueryGraph("s", [float_agg(5, 1)]),
    lambda: QueryGraph("s", [float_agg(5, 1), MapOperator(["sumx", "stdevx"])]),
    lambda: QueryGraph(
        "s", [FilterOperator("x > 10 AND y < 5"), MapOperator(["t", "x"])]
    ),
    lambda: QueryGraph(
        "s",
        [
            AggregateOperator(
                WindowSpec(WindowType.TIME, 4, 2),
                [AggregationSpec.parse("x:avg"), AggregationSpec.parse("x:stdev")],
            )
        ],
    ),
)


class Worlds:
    """The same queries twice: together on one engine (one plan, shared
    nodes) and alone on one engine each (a plan holding one query is
    that query's private pipeline).  Both sides are the production
    path, fed identical batches, so outputs must agree bit for bit — no
    float tolerance for a sharing or clone-on-divergence bug to hide in."""

    class Query:
        def __init__(self, together, solo, graph):
            #: (engine, handle, subscription) on each side.
            self.sides = []
            for engine in (together, solo):
                handle = engine.register_query(graph)
                self.sides.append((engine, handle, engine.subscribe(handle)))
            self.live = True

    def __init__(self):
        #: Per engine, the handles its source tap withdraws next time.
        self.doomed = {}
        self.together = self.new_engine()
        self.queries = []

    def new_engine(self):
        """An engine with a tap on the source ahead of every query."""
        engine = StreamEngine()
        doomed = self.doomed[engine] = []

        def tap(batch):
            while doomed:
                engine.withdraw(doomed.pop())

        engine.register_input_stream("s", SCHEMA).add_batch_listener(tap)
        return engine

    def register(self, graph):
        self.queries.append(self.Query(self.together, self.new_engine(), graph))

    def live(self):
        return [query for query in self.queries if query.live]

    def withdraw(self, query):
        for engine, handle, _ in query.sides:
            engine.withdraw(handle)
        query.live = False

    def push(self, tuples, victim=None):
        """Push one batch to every engine.  With *victim*, the source
        tap withdraws that query from inside the dispatch."""
        if victim is not None:
            for engine, handle, _ in victim.sides:
                self.doomed[engine].append(handle)
        self.together.push_batch("s", tuples)
        for query in self.live():
            query.sides[1][0].push_batch("s", tuples)
        if victim is not None:
            victim.live = False

    def pending(self):
        return sum(query.sides[0][2].pending for query in self.queries)

    def assert_identical(self):
        for index, query in enumerate(self.queries):
            got, expected = (
                [[repr(value) for value in tup.values] for tup in sub.drain()]
                for _, _, sub in query.sides
            )
            assert got == expected, f"query #{index} diverged"


def batch(rng, clock, length):
    return [
        make_tuple(
            SCHEMA,
            {"t": float(clock + i), "x": rng.uniform(-5, 45), "y": rng.uniform(-9, 9)},
        )
        for i in range(length)
    ]


class TestSharingIsInvisible:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_engine_of_n_equals_n_engines_of_one_under_churn(self, seed):
        rng = random.Random(seed)
        worlds = Worlds()
        clock = emitted = 0
        for _ in range(60):
            roll = rng.random()
            live = worlds.live()
            if roll < 0.35 or not live:
                worlds.register(rng.choice(TEMPLATES)())
            elif roll < 0.5:
                worlds.withdraw(rng.choice(live))
            else:
                tuples = batch(rng, clock, rng.randint(1, 30))
                clock += len(tuples)
                if roll < 0.65:  # withdraw one query from inside the dispatch
                    worlds.push(tuples, victim=rng.choice(live))
                else:
                    worlds.push(tuples)
            emitted += worlds.pending()
            worlds.assert_identical()
        assert emitted, "churn script must emit output"
        (stats,) = worlds.together.plan_stats().values()
        assert stats["nodes_shared"] > 0

    def test_withdrawal_from_a_tap_leaves_co_tenants_exact(self):
        """One of three queries sharing a float aggregate node is
        withdrawn from inside a dispatch; the two co-tenants must not
        notice."""
        rng = random.Random(42)
        worlds = Worlds()
        for template in (TEMPLATES[0], TEMPLATES[0], TEMPLATES[1]):
            worlds.register(template())
        (stats,) = worlds.together.plan_stats().values()
        assert stats["nodes_created"] == 3 and stats["nodes_shared"] == 4
        worlds.push(batch(rng, 0, 25))
        worlds.push(batch(rng, 25, 40), victim=worlds.queries[0])
        worlds.push(batch(rng, 65, 25))
        assert all(sub.pending for q in worlds.queries for _, _, sub in q.sides)
        worlds.assert_identical()


def test_one_feed_per_node_census():
    """Every node consumes its chain parent: no filter is fed from a
    sibling it implies, and nothing is left to decide such a feed."""
    import repro.expr.satisfiability as satisfiability
    from repro.streams.plan import PlanNode, StreamPlan

    assert not hasattr(StreamPlan, "_find_host")
    assert not hasattr(StreamPlan, "_residual_filter")
    assert not {"host", "dnf", "logical_parent"} & set(PlanNode.__slots__)
    assert not hasattr(satisfiability, "implies")
    assert not hasattr(satisfiability, "dnf_implies")
