"""Window-aggregation benchmark — columnar incremental vs oracle recompute.

Production keeps window state in columnar per-attribute ring buffers
with incremental aggregate states (running sums, two-stacks min/max,
reverse-Welford stdev) where the oracle (``StreamEngine.reference()``)
recomputes each window from rows.  This benchmark pins the win across
overlap ratios size/step ∈ {1, 4, 16} on tuple windows (higher overlap
= more recomputation saved), plus a sliding time-window run on the
pointer-eviction path.

Results land in ``BENCH_window_agg.json``; the size/step=16 speed-up
is gated (measured ~3.4x).
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
from repro.streams.operators import WindowType
from repro.streams.sources import WeatherSource

TUPLES = WeatherSource(seed=5).tuples(4_000)
WINDOW_SIZE = 64
OVERLAP_RATIOS = (1, 4, 16)  # size/step: 1 = tumbling, 16 = heavy overlap


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
