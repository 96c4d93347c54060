"""Window-aggregation benchmark — columnar windows vs the oracle, and
what a window's depth costs.

Production keeps window state in columnar per-attribute ring buffers
where the oracle (``StreamEngine.reference()``) recomputes each window
from rows; every emission is one ``compute`` per aggregation over the
window's column slice (C-speed ``sum``/``min``/``max``).  This benchmark
pins the columnar win across overlap ratios size/step ∈ {1, 4, 16} on
tuple windows, plus a sliding time-window run on the pointer-eviction
path.

The ``depth`` section records the price of having one way to evaluate a
window: µs per emission at size ∈ {16, 64, 256, 1024}, step 1 — O(size),
as a time window of that depth always was.  No policy the system
generates, ships or benchmarks is deeper than 26 tuples, so the rows are
recorded, not gated (``docs/performance.md`` has the sizing against the
incremental states this replaced, and the rule for revisiting it).

Results land in ``BENCH_window_agg.json``; the size/step=16 speed-up
is gated (measured ~6x).
"""

from benchmarks.harness import (
    AGGREGATIONS,
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
DEPTHS = (16, 64, 256, 1024)


def measure(window_type, size, step):
    graph = QueryGraph("weather").append(window_aggregate(window_type, size, step))
    run = production_vs_oracle([graph], TUPLES)
    return {
        "windows": len(run["outputs"][0]),
        "seed_s": run["oracle_s"],
        "columnar_s": run["production_s"],
        "speedup": run["speedup"],
    }


def test_tuple_window_overlap_sweep(benchmark):
    """Columnar vs seed recompute across overlap ratios."""

    def sweep():
        results = {}
        for ratio in OVERLAP_RATIOS:
            step = WINDOW_SIZE // ratio
            results[ratio] = {
                "size": WINDOW_SIZE,
                "step": step,
                **measure(WindowType.TUPLE, WINDOW_SIZE, step),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"Tuple-window aggregation — columnar vs seed recompute "
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

    results = benchmark.pedantic(
        measure, args=(WindowType.TIME, 300, 75), rounds=1, iterations=1
    )
    print_header("Time-window aggregation — pointer eviction vs seed row path")
    print(
        f"  seed {len(TUPLES) / results['seed_s']:>10.0f} t/s"
        f"   columnar {len(TUPLES) / results['columnar_s']:>10.0f} t/s"
        f"   ({results['speedup']:.1f}x, {results['windows']} windows)"
    )
    emit("window_agg", "time_window", results)


def test_tuple_window_depth(benchmark):
    """Per-emission cost of a step-1 tuple window as it deepens."""

    def sweep():
        rows = []
        for size in DEPTHS:
            row = measure(WindowType.TUPLE, size, 1)
            row["us_per_emission"] = row["columnar_s"] / row["windows"] * 1e6
            rows.append({"size": size, "step": 1, **row})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"Tuple-window depth — one slice recompute per emission "
        f"({len(TUPLES)} tuples, step 1, {len(AGGREGATIONS)} aggregations)"
    )
    for row in rows:
        print(
            f"  size {row['size']:>4d}: {row['us_per_emission']:>7.2f} us/emission"
            f"   ({row['windows']} windows, {row['speedup']:.1f}x the oracle)"
        )
    emit("window_agg", "depth", rows)
