"""Multi-query fan-out benchmark — shared execution plan vs the oracle.

The shared-plan tentpole merges identical operator-chain prefixes
across registered queries into one DAG node each, so a pushed batch is
filtered/windowed once per *distinct* prefix instead of once per
query: per-query ingest cost goes sublinear in the registered-query
count.  This benchmark pins that win on the workload the optimization
targets: fan-outs of 10 and 100 queries built from 10 query *families*
— each family one filter + one window aggregation shared by all its
members, diverging only at a cheap projection tail (~80% of each
chain's operators are family-shared).  Some family filters subsume
others (``temperature > 12`` implies ``temperature > 4``), so the
subsumption feed path is on the measured path too.

The baseline is the oracle (``StreamEngine.reference()``): one private
interpreted pipeline per query, so its ingest cost is linear in the
query count by construction.  Outputs are asserted equivalent with the
window benchmark's comparator (exact, except float tolerance where the
plan's incremental sums drift from the oracle's recompute; that sharing
is *exactly* invisible is pinned production-vs-production in
``tests/streams/test_plan.py``), and every run ends by withdrawing all
queries and asserting the plan released every DAG node.

Results are emitted to ``BENCH_multiquery.json`` for the CI bench-smoke
artifact and the BENCH_trajectory.json roll-up.  The fan-out-100
speedup assertion is the PR's acceptance criterion (≥ 3x).
"""

import gc
import json
import os
import time
from pathlib import Path

from benchmarks.conftest import assert_outputs_equivalent, print_header
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

TUPLES = WeatherSource(seed=8).tuples(6_000)
FANOUTS = (10, 100)
N_FAMILIES = 10

#: One filter condition per family.  The temperature thresholds form an
#: implication ladder (every tighter filter is subsumed by the loosest),
#: the rest are independent attributes — so the plan exercises both
#: exact prefix merging and subsumption feeds.
FAMILY_CONDITIONS = (
    "temperature > 4",
    "temperature > 8",
    "temperature > 12",
    "humidity > 30",
    "humidity > 60",
    "windspeed > 3",
    "windspeed > 9",
    "rainrate >= 0",
    "rainrate > 1",
    "temperature > 8 AND humidity > 30",
)

AGGREGATIONS = (
    "temperature:avg",
    "windspeed:max",
    "rainrate:sum",
    "humidity:min",
)
#: Cheap divergent tails: projections over the aggregate's output row.
TAIL_POOL = (
    ("avgtemperature",),
    ("maxwindspeed",),
    ("sumrainrate",),
    ("minhumidity",),
    ("avgtemperature", "maxwindspeed"),
    ("avgtemperature", "sumrainrate", "minhumidity"),
)

#: Outputs with float drift between incremental and recomputed results.
DRIFTING_FIELDS = {"avgtemperature", "sumrainrate"}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_multiquery.json"


def aggregate_field_names():
    agg = AggregateOperator(
        WindowSpec(WindowType.TUPLE, 32, 8),
        [AggregationSpec.parse(text) for text in AGGREGATIONS],
    )
    return [f.name for f in agg.output_schema(WEATHER_SCHEMA)]


#: Tail attribute names must exist in the aggregate output schema.
assert set(sum(TAIL_POOL, ())) <= set(aggregate_field_names()), (
    TAIL_POOL,
    aggregate_field_names(),
)


def build_queries(fanout):
    """*fanout* chains: family-shared filter + window aggregation, then
    a per-member projection tail drawn round-robin from the pool."""
    graphs = []
    for member in range(fanout):
        family = member % N_FAMILIES
        tail = TAIL_POOL[(member // N_FAMILIES) % len(TAIL_POOL)]
        graphs.append(
            QueryGraph("weather")
            .append(FilterOperator(FAMILY_CONDITIONS[family]))
            .append(
                AggregateOperator(
                    WindowSpec(WindowType.TUPLE, 32, 8),
                    [AggregationSpec.parse(text) for text in AGGREGATIONS],
                )
            )
            .append(MapOperator(list(tail)))
        )
    return graphs


def timed_run(shared, fanout):
    """Best ingest time for the full stream against *fanout* registered
    queries — of 3 runs on the plan, of 1 on the oracle (seconds per run
    at fan-out 100, against a gate that sits an order of magnitude below
    the measured ratio); returns (seconds, final run's outputs, stats)."""
    best, outputs, stats = None, None, None
    for _ in range(3 if shared else 1):
        engine = StreamEngine() if shared else StreamEngine.reference()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        handles = [engine.register_query(g) for g in build_queries(fanout)]
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            engine.push_batch("weather", TUPLES)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
        outputs = [engine.read(h) for h in handles]
        stats = engine.plan_stats().get("weather")
        # Shared nodes must be refcount-released once every query goes.
        for handle in handles:
            engine.withdraw(handle)
        if shared:
            (drained,) = engine.plan_stats().values()
            assert drained["live_nodes"] == 0
            assert drained["queries"] == 0
    return best, outputs, stats


def test_fanout_sweep(benchmark):
    """Shared plan vs the oracle's per-query pipelines at fan-out 10 and 100."""

    def sweep():
        results = {}
        for fanout in FANOUTS:
            per_query_s, per_query_out, _ = timed_run(False, fanout)
            shared_s, shared_out, stats = timed_run(True, fanout)
            for got, expected in zip(shared_out, per_query_out):
                assert_outputs_equivalent(got, expected, DRIFTING_FIELDS)
            # Fan-out 10 is one member per family: only the subsumption
            # ladder shares; above that, exact prefix merges dominate.
            assert stats["nodes_shared"] + stats["nodes_subsumed"] > 0
            if fanout > N_FAMILIES:
                assert stats["nodes_shared"] > 0
            results[fanout] = {
                "queries": fanout,
                "tuples": len(TUPLES),
                "per_query_s": per_query_s,
                "shared_s": shared_s,
                "speedup": per_query_s / shared_s,
                "plan": stats,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"Multi-query fan-out — shared plan vs oracle per-query pipelines "
        f"({len(TUPLES)} tuples, {N_FAMILIES} families)"
    )
    for fanout, row in results.items():
        plan = row["plan"]
        print(
            f"  {fanout:>3d} queries: per-query "
            f"{len(TUPLES) / row['per_query_s']:>9.0f} t/s"
            f"   shared {len(TUPLES) / row['shared_s']:>9.0f} t/s"
            f"   ({row['speedup']:.1f}x; {plan['nodes_created']} nodes for "
            f"{fanout} queries, {plan['nodes_subsumed']} subsumed)"
        )
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "fanout": {str(f): results[f] for f in FANOUTS},
                "families": N_FAMILIES,
                "aggregations": list(AGGREGATIONS),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    # Acceptance criterion: ≥ 3x at fan-out 100.  BENCH_SMOKE_RELAXED
    # lowers the gate on noisy shared CI runners while still catching a
    # disabled sharing path (which would benchmark at ~1x).
    floor = 1.5 if os.environ.get("BENCH_SMOKE_RELAXED") else 3.0
    assert results[100]["speedup"] >= floor
    # Per-query cost must actually be sublinear: the shared engine's
    # 10x fan-out increase may not cost 10x ingest time.
    assert results[100]["shared_s"] < results[10]["shared_s"] * 5
