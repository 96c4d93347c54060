"""Multi-query fan-out benchmark — shared execution plan vs the oracle.

The shared-plan tentpole merges identical operator-chain prefixes
across registered queries into one DAG node each, so a pushed batch is
filtered/windowed once per *distinct* prefix instead of once per
query: per-query ingest cost goes sublinear in the registered-query
count.  This benchmark pins that win on the workload the optimization
targets: fan-outs of 10 and 100 queries built from 10 query *families*
— each family one filter + one window aggregation shared by all its
members, diverging only at a cheap projection tail (~80% of each
chain's operators are family-shared).  Some family filters imply
others (``temperature > 12`` implies ``temperature > 4``); each still
scans the source itself, since only identical prefixes share a node.

The baseline is the oracle (``StreamEngine.reference()``): one private
interpreted pipeline per query, so its ingest cost is linear in the
query count by construction.  Outputs are asserted equal, exactly, and
every run ends by withdrawing all queries and asserting the plan
released every DAG node (both inside
``harness.production_vs_oracle``).

The ``grant`` section prices *registration* instead of ingest: a PEP's
first grant of a (policy, user query) compiles a template — obligations
→ graph, merge with NR/PR analysis, StreamSQL, plan trace — every
repeat is stamped from it (gated: a PEP that compiled every grant would
measure ~1x); and attaching one more filter beside 100 and beside 1,000
sibling filters.  An attach looks its fingerprint up and compares no
sibling, so the 1,000-sibling attach is gated at under 3x the
100-sibling one (a per-sibling scan measures ~5x).

The ``ingest_runs`` section prices the served path's ingest runs in
process: lane 0 of the end-to-end ``ingest_fanout`` workload on the
``city1500`` fixture (seed 7; three streams, 240 standing queries),
pushed once as one ``push_batch`` per op and once as one
``push_batches`` per stream for every 5 ops of each stream, on two
servers built alike, the sides alternating per quarter of the lane.
Every query's output is asserted equal, and the runs' time over the
single pushes is gated (measured ≈ 0.53; one dispatch per op measures
≈ 1).

Results land in ``BENCH_multiquery.json``; the fan-out-100 speed-up is
gated (measured ~25x, so the oracle's seconds-long run is not repeated).
"""

from benchmarks.e2e import serve, workloads
from benchmarks.harness import (
    AGGREGATIONS,
    best_of,
    emit,
    gate,
    print_header,
    production_vs_oracle,
    timed,
    timed_cpu,
    window_aggregate,
)
from repro.core import UserQuery, XacmlPlusInstance, stream_policy
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
from repro.xacml.request import Request

TUPLES = WeatherSource(seed=8).tuples(6_000)
FANOUTS = (10, 100)
N_FAMILIES = 10

#: One filter condition per family.  The temperature thresholds form an
#: implication ladder and the rest are independent attributes; distinct
#: conditions get a node each, and a family's members share theirs.
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
            run = production_vs_oracle(build_queries(fanout), TUPLES)
            stats = run["plan"]
            # Fan-out 10 is one member per family and shares nothing;
            # above that, a family's members share its prefix.
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
            f"{fanout} queries, {plan['nodes_shared']} shared)"
        )
    emit("multiquery", "fanout", results)
    emit("multiquery", "families", N_FAMILIES)
    emit("multiquery", "aggregations", list(AGGREGATIONS))
    # A disabled sharing path would benchmark at ~1x.
    gate("multiquery", "fanout.100.speedup", results[100]["speedup"], 1.5)
    # Per-query cost must actually be sublinear: the shared engine's
    # 10x fan-out increase may not cost 10x ingest time.
    assert results[100]["shared_s"] < results[10]["shared_s"] * 5


GRANT_PAIRS = 200
ATTACH_SIBLINGS = (100, 1_000)
ATTACH_NEWCOMERS = 50


def grant_seconds():
    """Seconds for the first and for the second grant of each of
    ``GRANT_PAIRS`` distinct (policy, user query) pairs, every pair a
    filter → map → window policy and a user query narrowing all three."""
    instance = XacmlPlusInstance(enforce_single_access=False, allow_partial_results=True)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
    requests = []
    for n in range(GRANT_PAIRS):
        graph = (
            QueryGraph("weather")
            .append(FilterOperator(f"temperature > {n % 20} AND humidity > {n // 20}"))
            .append(MapOperator(["samplingtime", "temperature", "humidity", "rainrate"]))
            .append(AggregateOperator(WindowSpec(WindowType.TUPLE, 8, 4), [
                AggregationSpec.parse(text)
                for text in ("samplingtime:lastval", "temperature:avg", "rainrate:sum")
            ]))
        )
        instance.load_policy(stream_policy(f"p{n}", "weather", graph, subject=f"u{n}"))
        query = UserQuery(
            "weather", f"temperature > {30 + n % 7}", ["temperature"],
            WindowSpec(WindowType.TUPLE, 16, 8), ["avg(temperature)"],
        )
        requests.append((Request.simple(f"u{n}", "weather"), query))
        instance.pdp.evaluate(requests[-1][0])      # decisions cached: the PEP is what is priced

    def lap():
        for request, query in requests:
            instance.request_stream(request, query)

    first = timed(lap)
    assert (instance.pep.templates.hits, instance.pep.templates.misses) == (0, GRANT_PAIRS)
    repeat = timed(lap)
    assert instance.pep.templates.hits == GRANT_PAIRS
    return first, repeat


def attach_seconds(siblings):
    """Best seconds to attach ``ATTACH_NEWCOMERS`` new filters to a plan
    already holding *siblings* distinct sibling filters."""

    def make():
        engine = StreamEngine()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        for n in range(siblings):
            engine.register_query(QueryGraph("weather", [
                FilterOperator(f"temperature > {n % 40} AND humidity > {n // 40}")
            ]))
        newcomers = [
            QueryGraph("weather", [
                FilterOperator(f"temperature > {n} AND humidity > 3 AND windspeed > {n}")
            ])
            for n in range(ATTACH_NEWCOMERS)
        ]
        return lambda: [engine.register_query(graph) for graph in newcomers]

    return best_of(3, make)


def test_grant_cost(benchmark):
    """First vs repeated grant through the PEP; attach beside many siblings."""

    def measure():
        first, repeat = grant_seconds()
        return {
            "pairs": GRANT_PAIRS,
            "first_us": first / GRANT_PAIRS * 1e6,
            "repeat_us": repeat / GRANT_PAIRS * 1e6,
            "first_over_repeat": first / repeat,
            **{
                f"attach_{siblings}_us": attach_seconds(siblings) / ATTACH_NEWCOMERS * 1e6
                for siblings in ATTACH_SIBLINGS
            },
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_header(f"Grant cost — {GRANT_PAIRS} (policy, user query) pairs through the PEP")
    print(
        f"  first grant {results['first_us']:>7.1f} us   repeated "
        f"{results['repeat_us']:>7.1f} us   ({results['first_over_repeat']:.1f}x)"
    )
    for siblings in ATTACH_SIBLINGS:
        print(
            f"  attach one new filter beside {siblings:>5d} siblings: "
            f"{results[f'attach_{siblings}_us']:>7.1f} us"
        )
    emit("multiquery", "grant", results)
    gate("multiquery", "grant.first_over_repeat", results["first_over_repeat"], 2.0)
    # An attach that scanned its siblings would grow ~5x from 100 to 1,000.
    attach_ratio = results["attach_1000_us"] / results["attach_100_us"]
    gate("multiquery", "grant.attach_1000_over_100", attach_ratio, ceiling=3.0)


RUN_OPS_PER_STREAM = 5
RUN_ROUNDS = 4


def ingest_run_seconds():
    """Wall seconds to push lane 0 of ``ingest_fanout`` one op at a time
    and in runs of :data:`RUN_OPS_PER_STREAM` ops per stream, and the op
    count.  Both sides push the same lists in the same order."""
    workload = workloads.build("ingest_fanout", workloads.City(7))
    ops = [(stream, records) for _, stream, records in workload.lanes[0].ingests]
    span = RUN_OPS_PER_STREAM * len({stream for stream, _ in ops})
    single, batched = (serve.build_server(workload.fixture).instance.engine for _ in range(2))

    def one_by_one(chunk):
        for stream, records in chunk:
            single.push_batch(stream, records)

    def in_runs(chunk):
        for low in range(0, len(chunk), span):
            lists = {}
            for stream, records in chunk[low:low + span]:
                lists.setdefault(stream, []).append(records)
            for stream, record_lists in lists.items():
                batched.push_batches(stream, record_lists)

    seconds = {"push_batch": 0.0, "push_batches": 0.0}
    quarter = len(ops) // RUN_ROUNDS
    for round_ in range(RUN_ROUNDS):
        chunk = ops[round_ * quarter:(round_ + 1) * quarter]
        sides = [("push_batch", one_by_one), ("push_batches", in_runs)]
        for name, push in sides if round_ % 2 == 0 else sides[::-1]:
            seconds[name] += timed_cpu(lambda: push(chunk))[0]
    outputs = [[query.output.snapshot() for query in engine.active_queries()]
               for engine in (single, batched)]
    assert outputs[0] == outputs[1] and any(outputs[0])
    return seconds, quarter * RUN_ROUNDS


def test_ingest_runs(benchmark):
    """One dispatch per stream for a run of ingests vs one per ingest."""
    seconds, ops = benchmark.pedantic(ingest_run_seconds, rounds=1, iterations=1)
    ratio = seconds["push_batches"] / seconds["push_batch"]
    print_header(f"Ingest runs — {ops} ingests of ingest_fanout lane 0 (city1500, seed 7)")
    print(
        f"  one push_batch per op {seconds['push_batch'] / ops * 1e6:>7.1f} us/op   "
        f"push_batches per {RUN_OPS_PER_STREAM} ops per stream "
        f"{seconds['push_batches'] / ops * 1e6:>7.1f} us/op   ({ratio:.2f}x)"
    )
    emit("multiquery", "ingest_runs", {
        "ops": ops, "ops_per_stream": RUN_OPS_PER_STREAM,
        **{f"{name}_us_per_op": value / ops * 1e6 for name, value in seconds.items()},
        "runs_over_single": ratio,
    })
    # A run that dispatched each list alone would measure ~1x.
    gate("multiquery", "ingest_runs.runs_over_single", ratio, ceiling=0.8)
