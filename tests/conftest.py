"""Shared fixtures for the eXACML+ reproduction test suite."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.core import UserQuery, XacmlPlusInstance, stream_policy
from repro.core.obligations import (
    WINDOW_ATTR_ID,
    WINDOW_OBLIGATION,
    WINDOW_SIZE_ID,
    WINDOW_STEP_ID,
    WINDOW_TYPE_ID,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.reference import ReferencePipeline, reference_operator
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


def oracle(subject, input_schema=None):
    """The reference side of the stream differential harnesses, built
    from ``repro.streams.reference``: a production operator becomes the
    seed operator over the same declaration; a :class:`QueryGraph` (with
    its *input_schema*) becomes the per-tuple chain walker."""
    if isinstance(subject, QueryGraph):
        return ReferencePipeline(subject, input_schema)
    return reference_operator(subject)


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
