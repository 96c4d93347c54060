"""Window-aggregation benchmark — columnar windows vs the oracle, and
the recompute/incremental crossover the production rule is fitted to.

Production keeps window state in columnar per-attribute ring buffers
where the oracle (``StreamEngine.reference()``) recomputes each window
from rows.  On those buffers a tuple window either recomputes each
emission from a column slice (C-speed ``sum``/``min``/``max``) or
maintains incremental aggregate states (running sums, two-stacks
min/max, reverse-Welford stdev); ``operators.window._incremental_pays``
picks by ``(size, step)``, and at size 64 every shape swept here
recomputes.  This benchmark pins the columnar win across overlap ratios
size/step ∈ {1, 4, 16} on tuple windows, plus a sliding time-window run
on the pointer-eviction path.

The ``crossover`` section is the measurement behind the rule's
constants: per emission, state upkeep (``insert_many`` + ``evict_many``
+ ``result``) against ``compute`` over the window's slice, for size ∈
{16, 64, 256, 1024} × step ∈ {1, 8}, beside the side the rule predicts.
The same columnar buffers on both sides — the comparison the
production-vs-oracle sweep never made.

Results land in ``BENCH_window_agg.json``; the size/step=16 speed-up
is gated (measured ~6x), and so is the rule agreeing with the
measurement at the shallowest and the deepest crossover shape.
"""

from benchmarks.harness import (
    AGGREGATIONS,
    DRIFTING_FIELDS,
    ROUNDS,
    best_of,
    emit,
    gate,
    print_header,
    production_vs_oracle,
    window_aggregate,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import AggregationSpec, WindowType
from repro.streams.operators.window import _incremental_pays
from repro.streams.sources import WeatherSource

TUPLES = WeatherSource(seed=5).tuples(4_000)
WINDOW_SIZE = 64
OVERLAP_RATIOS = (1, 4, 16)  # size/step: 1 = tumbling, 16 = heavy overlap
CROSSOVER_SHAPES = [(size, step) for size in (16, 64, 256, 1024) for step in (1, 8)]


def measure(window_type, size, step, drifting_fields):
    graph = QueryGraph("weather").append(window_aggregate(window_type, size, step))
    run = production_vs_oracle([graph], TUPLES, drifting_fields)
    return {
        "windows": len(run["outputs"][0]),
        "seed_s": run["oracle_s"],
        "columnar_s": run["production_s"],
        "speedup": run["speedup"],
    }


def test_tuple_window_overlap_sweep(benchmark):
    """Columnar incremental vs seed recompute across overlap ratios."""

    def sweep():
        results = {}
        for ratio in OVERLAP_RATIOS:
            step = WINDOW_SIZE // ratio
            results[ratio] = {
                "size": WINDOW_SIZE,
                "step": step,
                **measure(WindowType.TUPLE, WINDOW_SIZE, step, DRIFTING_FIELDS),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"Tuple-window aggregation — columnar incremental vs seed recompute "
        f"({len(TUPLES)} tuples, size {WINDOW_SIZE}, {len(AGGREGATIONS)} aggregations)"
    )
    for ratio, row in results.items():
        print(
            f"  size/step {ratio:>2d}: seed "
            f"{len(TUPLES) / row['seed_s']:>10.0f} t/s"
            f"   columnar {len(TUPLES) / row['columnar_s']:>10.0f} t/s"
            f"   ({row['speedup']:.1f}x)"
        )
    emit("window_agg", "tuple_window", results)
    emit("window_agg", "tuples", len(TUPLES))
    emit("window_agg", "aggregations", list(AGGREGATIONS))
    gate("window_agg", "tuple_window.16.speedup", results[16]["speedup"], 1.5)


def test_time_window_pointer_eviction(benchmark):
    """Sliding time window (300 s size, 75 s step, 30 s sampling) on the
    monotonic pointer-eviction path vs the seed row path."""

    # The columnar time path recomputes from column slices, so equality
    # is exact, drift-prone aggregations included: no drifting fields.
    results = benchmark.pedantic(
        measure, args=(WindowType.TIME, 300, 75, ()), rounds=1, iterations=1
    )
    print_header("Time-window aggregation — pointer eviction vs seed row path")
    print(
        f"  seed {len(TUPLES) / results['seed_s']:>10.0f} t/s"
        f"   columnar {len(TUPLES) / results['columnar_s']:>10.0f} t/s"
        f"   ({results['speedup']:.1f}x, {results['windows']} windows)"
    )
    emit("window_agg", "time_window", results)


def crossover_columns():
    """(function, column) per benchmark aggregation, over ``TUPLES``."""
    specs = [AggregationSpec.parse(text) for text in AGGREGATIONS]
    return [(spec.function, [tup[spec.attribute] for tup in TUPLES]) for spec in specs]


def incremental_sweep(columns, size, step, emissions):
    """Every emission's upkeep on fresh states: result, evict the *step*
    positions slid past, insert the *step* that arrived."""
    states = [(function.make_state(), col) for function, col in columns]
    for state, col in states:
        state.insert_many(col[:size])

    def sweep():
        for low in range(0, emissions * step, step):
            for state, col in states:
                state.result()
                state.evict_many(col[low:low + step])
                state.insert_many(col[low + size:low + size + step])

    return sweep


def recompute_sweep(columns, size, step, emissions):
    computes = [(function.compute, col) for function, col in columns]

    def sweep():
        for low in range(0, emissions * step, step):
            for compute, col in computes:
                compute(col[low:low + size])

    return sweep


def test_recompute_incremental_crossover(benchmark):
    """Per-emission cost of either strategy on the same columns, beside
    the rule's pick; the rule must agree where the answer is clearest."""

    def measure_shapes():
        columns = crossover_columns()
        rows = []
        for size, step in CROSSOVER_SHAPES:
            emissions = (len(TUPLES) - size) // step
            seconds = {
                side: best_of(ROUNDS, lambda: sweep(columns, size, step, emissions))
                for side, sweep in (
                    ("incremental", incremental_sweep), ("recompute", recompute_sweep)
                )
            }
            rule = "incremental" if _incremental_pays(size, step) else "recompute"
            other = "recompute" if rule == "incremental" else "incremental"
            rows.append({
                "size": size,
                "step": step,
                "emissions": emissions,
                "incremental_us": seconds["incremental"] / emissions * 1e6,
                "recompute_us": seconds["recompute"] / emissions * 1e6,
                "rule": rule,
                "measured_faster": min(seconds, key=seconds.get),
                "other_over_rule": seconds[other] / seconds[rule],
            })
        return rows

    rows = benchmark.pedantic(measure_shapes, rounds=1, iterations=1)
    print_header(
        f"Recompute vs incremental per emission ({len(AGGREGATIONS)} aggregations)"
    )
    for row in rows:
        print(
            f"  size {row['size']:>4d} step {row['step']}: incremental "
            f"{row['incremental_us']:>6.2f} us   recompute {row['recompute_us']:>6.2f} us"
            f"   rule -> {row['rule']:<11s} ({row['other_over_rule']:.2f}x vs the other)"
        )
    emit("window_agg", "crossover", rows)
    # Shallowest = least size per step, deepest = most: where a wrong
    # constant (or a rule reading its arguments backwards) cannot hide.
    by_depth = sorted(rows, key=lambda row: row["size"] / row["step"])
    gate(
        "window_agg",
        "crossover.rule_over_other_at_extremes",
        min(by_depth[0]["other_over_rule"], by_depth[-1]["other_over_rule"]),
        1.0,
    )
