"""Operator-evaluation benchmark — production vs oracle, fan-out sweep.

Pins what compiled, batched operator evaluation buys: engine
throughput at query fan-out 1/5/20 against the interpreted per-tuple
oracle (``StreamEngine.reference()``), a raw expression-evaluation
microbenchmark (compiled mask over a batch's columns vs AST walk), and ``push_batch`` against
per-tuple ``push`` on the production engine.  The per-box and
Example 1 chain throughputs are the substrate sanity numbers (the paper
never measures StreamBase's own tuple throughput), kept so an engine
regression shows in bench history.

Results land in ``BENCH_operator_eval.json``; the fan-out-5 speed-up
is gated (measured ~8x).
"""

import pytest

from benchmarks.harness import (
    best_of,
    emit,
    gate,
    print_header,
    production_vs_oracle,
)
from repro.expr.compile import compile_batch
from repro.expr.evaluate import evaluate
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
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.streams.tuples import Batch

TUPLES = WeatherSource(seed=3).tuples(2_000)
FANOUTS = (1, 5, 20)
CONDITION = "rainrate > 5 AND windspeed < 30 OR temperature >= 25"


def fanout_graphs(fanout):
    return [
        QueryGraph("weather").append(FilterOperator(f"rainrate > {i}"))
        for i in range(fanout)
    ]


def engine_with(graphs):
    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    for graph in graphs:
        engine.register_query(graph)
    return engine


def graph_for(kind):
    graph = QueryGraph("weather")
    if kind == "filter":
        graph.append(FilterOperator("rainrate > 5"))
    elif kind == "map":
        graph.append(MapOperator(["samplingtime", "rainrate"]))
    elif kind == "aggregate":
        graph.append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 5, 2),
                [AggregationSpec.parse("rainrate:avg")],
            )
        )
    elif kind == "chain":
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


def test_expression_eval_compiled_vs_interpreted(benchmark):
    """Microbenchmark: one condition over 2000 tuples, the compiled
    mask over the batch's columns (the form a plan node executes) vs
    the AST walk over the tuples."""
    expression = parse_condition(CONDITION)
    mask = compile_batch(expression, WEATHER_SCHEMA)
    columns, rows = Batch.of(TUPLES).columns, range(len(TUPLES))

    def compare():
        interpreted = best_of(3, lambda: lambda: [evaluate(expression, t) for t in TUPLES])
        compiled = best_of(3, lambda: lambda: mask(columns, rows))
        accepted = [i for i, t in enumerate(TUPLES) if evaluate(expression, t)]
        assert mask(columns, rows) == accepted and 0 < len(accepted) < len(TUPLES)
        return {"interpreted_s": interpreted, "compiled_s": compiled}

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = timings["interpreted_s"] / timings["compiled_s"]
    print_header("Expression evaluation — 2000 tuples, AST walk vs column mask")
    print(
        f"  interpreted {timings['interpreted_s'] * 1e6 / len(TUPLES):8.2f} µs/tuple"
        f"   compiled {timings['compiled_s'] * 1e6 / len(TUPLES):8.2f} µs/tuple"
        f"   ({speedup:.1f}x)"
    )
    emit("operator_eval", "expression_eval", {**timings, "speedup": speedup})
    emit("operator_eval", "condition", CONDITION)


def test_engine_fanout_compiled_vs_interpreted(benchmark):
    """End-to-end: push_batch through N registered filter queries,
    production engine vs the interpreted per-tuple oracle."""

    def sweep():
        results = {}
        for fanout in FANOUTS:
            run = production_vs_oracle(fanout_graphs(fanout), TUPLES)
            results[fanout] = {
                "interpreted_s": run["oracle_s"],
                "compiled_s": run["production_s"],
                "speedup": run["speedup"],
                "tuples": len(TUPLES),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Engine throughput — compiled+batched vs interpreted (2000 tuples)")
    for fanout, row in results.items():
        print(
            f"  fan-out {fanout:>2d}: interpreted "
            f"{row['tuples'] / row['interpreted_s']:>10.0f} t/s"
            f"   compiled {row['tuples'] / row['compiled_s']:>10.0f} t/s"
            f"   ({row['speedup']:.1f}x)"
        )
    emit("operator_eval", "engine_fanout", results)
    emit("operator_eval", "tuples", len(TUPLES))
    gate("operator_eval", "engine_fanout.5.speedup", results[5]["speedup"], 2.0)


@pytest.mark.parametrize("kind", ["filter", "map", "aggregate", "chain"])
def test_operator_throughput(benchmark, kind):
    """Tuples through each box type and the full Example 1 chain, one
    ``push`` per tuple on an engine holding that one query."""
    engine = engine_with([graph_for(kind)])

    def push_all():
        for tup in TUPLES:
            engine.push("weather", tup)

    benchmark(push_all)


def test_batched_ingest_equivalent_and_faster(benchmark):
    """push_batch must match per-tuple outputs, and the amortized
    dispatch must show through where per-push overhead matters (raw
    ingest, fan-out 0)."""

    def push_each(engine):
        for tup in TUPLES:
            engine.push("weather", tup)

    def compare():
        timings = {}
        for n_queries in (0, *FANOUTS):
            outputs = {}
            for mode, feed in (
                ("per-tuple", push_each),
                ("batched", lambda engine: engine.push_batch("weather", TUPLES)),
            ):
                engines = []

                def make():
                    engines.append(engine_with(fanout_graphs(n_queries)))
                    return lambda: feed(engines[-1])

                timings[(n_queries, mode)] = best_of(3, make)
                outputs[mode] = [
                    [t["rainrate"] for t in engines[-1].read(query.handle)]
                    for query in engines[-1].active_queries()
                ]
            assert outputs["per-tuple"] == outputs["batched"]
        return timings

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    print_header("Engine ingest — per-tuple vs batched (2000 tuples)")
    for n_queries in (0, *FANOUTS):
        single = timings[(n_queries, "per-tuple")]
        batched = timings[(n_queries, "batched")]
        print(
            f"  fan-out {n_queries:>2d}: per-tuple {len(TUPLES) / single:>10.0f} t/s"
            f"   batched {len(TUPLES) / batched:>10.0f} t/s"
            f"   ({single / batched:.2f}x)"
        )
    # Raw ingest is where the per-push overhead lives; the batch path
    # must beat it by a wide, noise-proof margin.
    gate(
        "operator_eval",
        "raw_ingest.batched_vs_per_tuple",
        timings[(0, "per-tuple")] / timings[(0, "batched")],
        1.5,
    )
