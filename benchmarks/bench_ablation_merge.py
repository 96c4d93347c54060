"""Ablation A2 — merging vs concatenating query graphs (Section 3.1).

The paper argues that "properly merging [graphs] together gains
advantages such as reducing the number of operators in query graph and
therefore improving efficiency".  This bench quantifies both halves:
operator-count reduction, and per-tuple engine throughput of the merged
pipeline vs the naive policy-graph-then-user-graph concatenation.
"""

from benchmarks.harness import gate, print_header, timed
from repro.core.merge import merge_query_graphs
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from tests.conftest import (
    build_lta_user_query,
    build_nea_policy_graph,
    engine_outputs,
)


def concatenated_graph():
    """Policy graph followed by the user graph, no merging."""
    policy = build_nea_policy_graph()
    user = build_lta_user_query()
    graph = QueryGraph("weather", name="concatenated")
    for operator in policy.operators:
        graph.append(operator)
    # After the policy aggregation the schema is (lastvalsamplingtime,
    # avgrainrate, maxwindspeed); the user's operators must be rewritten
    # against it — which is exactly the awkwardness merging avoids.  The
    # honest concatenation applies the user's *intent* on renamed columns.
    from repro.streams.operators import (
        AggregateOperator,
        AggregationSpec,
        FilterOperator,
        MapOperator,
    )

    graph.append(FilterOperator("avgrainrate > 50"))
    graph.append(MapOperator(["lastvalsamplingtime", "avgrainrate"]))
    graph.append(
        AggregateOperator(
            user.window,
            [
                AggregationSpec.parse("lastvalsamplingtime:lastval"),
                AggregationSpec.parse("avgrainrate:avg"),
            ],
        )
    )
    return graph


def merged_graph():
    return merge_query_graphs(
        build_nea_policy_graph(),
        build_lta_user_query().to_query_graph(),
        schema=WEATHER_SCHEMA,
    ).graph


def push_through(graph, tuples):
    """One push per tuple on an engine holding *graph* alone."""
    singles = ([tup] for tup in tuples)
    return len(engine_outputs(StreamEngine(), graph, WEATHER_SCHEMA, singles))


def test_merge_operation_cost(benchmark):
    policy = build_nea_policy_graph()
    user = build_lta_user_query().to_query_graph()
    benchmark(
        lambda: merge_query_graphs(policy, user, schema=WEATHER_SCHEMA)
    )


def test_merged_vs_concatenated_throughput(benchmark):
    merged = merged_graph()
    concatenated = concatenated_graph()
    benchmark.pedantic(
        push_through, args=(merged, WeatherSource(seed=3).tuples(1_000)),
        rounds=1, iterations=1,
    )
    print_header("Ablation A2 — merged vs concatenated query graphs")
    print(f"  operators merged      : {len(merged)}")
    print(f"  operators concatenated: {len(concatenated)}")
    assert len(merged) < len(concatenated)

    tuples = WeatherSource(seed=3).tuples(20_000)
    results = {}
    for label, graph in (("merged", merged), ("concatenated", concatenated)):
        results[label] = len(tuples) / timed(lambda: push_through(graph, tuples))
        print(f"  {label:>13s}: {results[label]:>10.0f} tuples/s")

    speedup = results["merged"] / results["concatenated"]
    print(f"  merged speedup: {speedup:.2f}x")
    # Merging must not be slower than concatenation.
    gate("ablation_merge", "merged_vs_concatenated.speedup", speedup, 1.0)
