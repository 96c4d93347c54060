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
queries and asserting the plan released every DAG node (both inside
``harness.production_vs_oracle``).

Results land in ``BENCH_multiquery.json``; the fan-out-100 speed-up is
gated (measured ~25x, so the oracle's seconds-long run is not repeated).
"""

from benchmarks.harness import (
    AGGREGATIONS,
    DRIFTING_FIELDS,
    emit,
    gate,
    print_header,
    production_vs_oracle,
    window_aggregate,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator, MapOperator, WindowType
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

#: Cheap divergent tails: projections over the aggregate's output row.
TAIL_POOL = (
    ("avgtemperature",),
    ("maxwindspeed",),
    ("sumrainrate",),
    ("minhumidity",),
    ("avgtemperature", "maxwindspeed"),
    ("avgtemperature", "sumrainrate", "minhumidity"),
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
            .append(window_aggregate(WindowType.TUPLE, 32, 8))
            .append(MapOperator(list(tail)))
        )
    return graphs


def test_fanout_sweep(benchmark):
    """Shared plan vs the oracle's per-query pipelines at fan-out 10 and 100."""

    def sweep():
        results = {}
        for fanout in FANOUTS:
            run = production_vs_oracle(build_queries(fanout), TUPLES, DRIFTING_FIELDS)
            stats = run["plan"]
            # Fan-out 10 is one member per family: only the subsumption
            # ladder shares; above that, exact prefix merges dominate.
            assert stats["nodes_shared"] + stats["nodes_subsumed"] > 0
            if fanout > N_FAMILIES:
                assert stats["nodes_shared"] > 0
            results[fanout] = {
                "queries": fanout,
                "tuples": len(TUPLES),
                "per_query_s": run["oracle_s"],
                "shared_s": run["production_s"],
                "speedup": run["speedup"],
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
    emit("multiquery", "fanout", results)
    emit("multiquery", "families", N_FAMILIES)
    emit("multiquery", "aggregations", list(AGGREGATIONS))
    # A disabled sharing path would benchmark at ~1x.
    gate("multiquery", "fanout.100.speedup", results[100]["speedup"], 1.5)
    # Per-query cost must actually be sublinear: the shared engine's
    # 10x fan-out increase may not cost 10x ingest time.
    assert results[100]["shared_s"] < results[10]["shared_s"] * 5
