"""Ablation A3 — map-merge semantics: the paper's union vs safe intersection.

Section 3.1's text merges map operators with S3 = S1 ∪ S2.  DESIGN.md
documents why this repository defaults to intersection: under union, a
user query naming an attribute the policy withholds would widen the
projection and leak it.  This bench demonstrates the leak concretely and
measures that the safe semantics costs nothing.
"""

import pytest

from benchmarks.harness import print_header
from repro.core.merge import MergeOptions, merge_query_graphs
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import MapOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from tests.conftest import engine_outputs

POLICY_ATTRS = ["samplingtime", "rainrate", "windspeed"]
SNEAKY_USER_ATTRS = ["rainrate", "temperature"]  # temperature is withheld


def graphs():
    policy = QueryGraph("weather").append(MapOperator(POLICY_ATTRS))
    user = QueryGraph("weather").append(MapOperator(SNEAKY_USER_ATTRS))
    return policy, user


def test_union_semantics_leaks_withheld_attribute(benchmark):
    policy, user = graphs()
    merged = benchmark.pedantic(
        lambda: merge_query_graphs(
            policy, user, schema=WEATHER_SCHEMA,
            options=MergeOptions(map_semantics="union"),
        ).graph,
        rounds=1, iterations=1,
    )
    leaked = merged.map_operator.attribute_set() - {a.lower() for a in POLICY_ATTRS}

    print_header("Ablation A3 — map-merge semantics")
    print(f"  policy projection : {sorted(a.lower() for a in POLICY_ATTRS)}")
    print(f"  user asks for     : {sorted(a.lower() for a in SNEAKY_USER_ATTRS)}")
    print(f"  union merge leaks : {sorted(leaked)}  ← the Section 3.1 text, verbatim")
    assert leaked == {"temperature"}

    # The leak is observable in actual data: temperature values flow out.
    outputs = engine_outputs(
        StreamEngine(), merged, WEATHER_SCHEMA, [WeatherSource(seed=3).tuples(5)]
    )
    assert len(outputs) == 5
    assert all("temperature" in t.schema.attribute_names for t in outputs)


def test_intersection_semantics_never_widens(benchmark):
    policy, user = graphs()
    merged = benchmark.pedantic(
        lambda: merge_query_graphs(policy, user, schema=WEATHER_SCHEMA).graph,
        rounds=1, iterations=1,
    )
    merged_set = merged.map_operator.attribute_set()
    print(f"  intersection merge: {sorted(merged_set)}  ← safe default")
    assert merged_set <= {a.lower() for a in POLICY_ATTRS}
    assert "temperature" not in merged_set


@pytest.mark.parametrize("semantics", ["intersection", "union"])
def test_map_merge_cost(benchmark, semantics):
    policy, user = graphs()
    options = MergeOptions(map_semantics=semantics)
    benchmark(
        lambda: merge_query_graphs(
            policy, user, schema=WEATHER_SCHEMA, options=options
        )
    )
