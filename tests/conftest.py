"""Shared fixtures for the eXACML+ reproduction test suite."""

from __future__ import annotations

import signal
from collections import OrderedDict
from contextlib import contextmanager

import pytest

from repro.core import UserQuery, XacmlPlusInstance, stream_policy
from repro.core.obligations import (
    WINDOW_ATTR_ID,
    WINDOW_OBLIGATION,
    WINDOW_SIZE_ID,
    WINDOW_STEP_ID,
    WINDOW_TYPE_ID,
)
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
from repro.streams.reference import reference_operator
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.attributes import AttributeValue
from repro.xacml.response import AttributeAssignment, Effect, Obligation


@pytest.fixture
def weather_schema():
    return WEATHER_SCHEMA


@pytest.fixture
def weather_records():
    """300 seeded weather records (plenty of rainy tuples)."""
    return WeatherSource(seed=3).records(300)


def oracle(operator):
    """The reference side of the operator-level differential tests: the
    seed operator (``repro.streams.reference``) over a production
    operator's declaration; run it through :func:`bound`."""
    return reference_operator(operator)


def bound(operator, input_schema):
    """``batch -> batch`` for one box over *input_schema*: what
    production runs (``operator.bind``), or — for an :func:`oracle`
    operator — its per-tuple ``process`` walked over the batch."""
    output_schema = operator.output_schema(input_schema)
    if type(operator) in (FilterOperator, MapOperator, AggregateOperator):
        return operator.bind(input_schema, output_schema)
    return lambda batch: [
        out for tup in batch for out in operator.process(tup, output_schema)
    ]


def engine_outputs(engine, graph, schema, batches):
    """Register *graph* on a fresh *engine* over an input stream of
    *schema*, push *batches* in order, return every emitted tuple."""
    engine.register_input_stream(graph.source, schema)
    handle = engine.register_query(graph)
    for batch in batches:
        engine.push_batch(graph.source, batch)
    return engine.read(handle)


def production_and_oracle(graph, schema, batches):
    """(``StreamEngine()`` outputs with *batches* pushed as given,
    ``StreamEngine.reference()`` outputs with the same tuples pushed one
    at a time) — the pipeline-level differential pair."""
    singles = [[tup] for batch in batches for tup in batch]
    return (
        engine_outputs(StreamEngine(), graph, schema, batches),
        engine_outputs(StreamEngine.reference(), graph, schema, singles),
    )


@contextmanager
def wall_clock_guard(seconds):
    """Fail the test if its body runs longer than *seconds* of wall time.

    A regression that loops forever (a pure-Python loop: the alarm
    interrupts it between bytecodes) then fails in seconds instead of
    holding the whole run.  Main thread only, as pytest runs tests.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s of wall-clock time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class NoWalk(OrderedDict):
    """A ``DecisionCache.entries`` mapping that refuses to be iterated:
    swapped in to prove a store event never walks the cache."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a store event walked the decision cache")

    __iter__ = items = values = keys = _refuse


def live_keys(cache) -> set:
    """The keys of *cache*'s entries, read past a :class:`NoWalk`."""
    return set(OrderedDict.keys(cache.entries))


def build_nea_policy_graph() -> QueryGraph:
    """The paper's Example 1 policy graph (Figure 1)."""
    graph = QueryGraph("weather", name="nea-policy")
    graph.append(FilterOperator("rainrate > 5"))
    graph.append(MapOperator(["samplingtime", "rainrate", "windspeed"]))
    graph.append(
        AggregateOperator(
            WindowSpec(WindowType.TUPLE, 5, 2),
            [
                AggregationSpec.parse("samplingtime:lastval"),
                AggregationSpec.parse("rainrate:avg"),
                AggregationSpec.parse("windspeed:max"),
            ],
        )
    )
    return graph


def window_obligation(size, step) -> Obligation:
    """A complete tuple-window obligation over ``rainrate:avg``, its
    size and step typed the way the given Python values infer."""
    assignments = [
        (WINDOW_TYPE_ID, "tuple"),
        (WINDOW_SIZE_ID, size),
        (WINDOW_STEP_ID, step),
        (WINDOW_ATTR_ID, "rainrate:avg"),
    ]
    return Obligation(WINDOW_OBLIGATION, Effect.PERMIT, [
        AttributeAssignment(attribute_id, AttributeValue.infer(value))
        for attribute_id, value in assignments
    ])


def build_lta_user_query() -> UserQuery:
    """The paper's Figure 4(a) customised query."""
    return UserQuery(
        "weather",
        filter_condition="RainRate > 50",
        map_attributes=["RainRate"],
        window=WindowSpec(WindowType.TUPLE, 10, 2),
        aggregations=["avg(RainRate)"],
    )


@pytest.fixture
def nea_policy_graph():
    return build_nea_policy_graph()


@pytest.fixture
def lta_user_query():
    return build_lta_user_query()


@pytest.fixture
def nea_instance(nea_policy_graph):
    """An XACML+ instance with the weather stream and Example 1 policy."""
    instance = XacmlPlusInstance(allow_partial_results=True)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
    instance.load_policy(
        stream_policy("nea:weather:lta", "weather", nea_policy_graph, subject="LTA")
    )
    return instance
