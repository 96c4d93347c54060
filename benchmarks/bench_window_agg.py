"""Window-aggregation benchmark — columnar windows vs the oracle, and
what a window's depth costs.

Production keeps window state in columnar per-attribute ring buffers
where the oracle (``StreamEngine.reference()``) recomputes each window
from rows; every emission is one ``compute`` per aggregation over the
window's column values (C-speed ``sum``/``min``/``max``).  This
benchmark pins the columnar win across overlap ratios size/step ∈ {1,
4, 16} on tuple windows.

The ``time_window`` section records what a time window costs now that
it has one way to evaluate — members selected by timestamp value over
the retained buffer, whatever the order: seconds per side and the
speed-up over the oracle on ascending 30 s samples at 300 s / 75 s,
3,000 s / 300 s and 30,000 s / 300 s, and on the same stream with 10% of
its tuples arriving late.  Recorded, not gated (``docs/performance.md``,
*One way to evaluate a time window*, has the price against the path it
replaced and the rule for revisiting it).

The ``depth`` section records the price of having one way to evaluate a
window: µs per emission at size ∈ {16, 64, 256, 1024}, step 1 — O(size),
as a time window of that depth always was.  No policy the system
generates, ships or benchmarks is deeper than 26 tuples, so the rows are
recorded, not gated (``docs/performance.md`` has the sizing against the
incremental states this replaced, and the rule for revisiting it).

Results land in ``BENCH_window_agg.json``; the size/step=16 speed-up
is gated (measured ~6x).
"""

import random

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
TIME_SHAPES = ((300, 75), (3_000, 300), (30_000, 300))  # seconds
LATE_SHARE = 0.1


def disordered(tuples, share, seed=5):
    """*tuples* with *share* of them arriving 1–8 positions late."""
    rng = random.Random(seed)
    out = list(tuples)
    for index in range(len(out) - 8):
        if rng.random() < share:
            later = index + rng.randint(1, 8)
            out[index], out[later] = out[later], out[index]
    return out


def measure(window_type, size, step, tuples=TUPLES):
    graph = QueryGraph("weather").append(window_aggregate(window_type, size, step))
    run = production_vs_oracle([graph], tuples)
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


def test_time_window(benchmark):
    """Sliding time windows over 30 s samples, ascending and 10% late,
    production vs the seed row path."""

    def sweep():
        late = disordered(TUPLES, LATE_SHARE)
        rows = [
            {"size": size, "step": step, "late_share": 0.0,
             **measure(WindowType.TIME, size, step)}
            for size, step in TIME_SHAPES
        ]
        rows.append({"size": 300, "step": 75, "late_share": LATE_SHARE,
                     **measure(WindowType.TIME, 300, 75, late)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header(
        f"Time-window aggregation — one path vs seed row path "
        f"({len(TUPLES)} tuples, 30 s sampling, {len(AGGREGATIONS)} aggregations)"
    )
    for row in rows:
        print(
            f"  {row['size']:>6d} s / {row['step']:>3d} s, {row['late_share']:.0%} late:"
            f"   production {row['columnar_s']:.4f} s   seed {row['seed_s']:.4f} s"
            f"   ({row['speedup']:.1f}x, {row['windows']} windows)"
        )
    emit("window_agg", "time_window", rows)


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
