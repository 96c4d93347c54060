"""Window-aggregation benchmark — columnar incremental vs seed recompute.

The PR-3 tentpole moves window state to columnar per-attribute ring
buffers and replaces recompute-per-window with incremental aggregate
states (running sums, two-stacks min/max, reverse-Welford stdev).
This benchmark pins the win across overlap ratios size/step ∈
{1, 4, 16} on tuple windows (higher overlap = more recomputation
saved), plus a sliding time-window run on the pointer-eviction path,
against the seed row-oriented path (``StreamEngine.reference()``).

Results are emitted to ``BENCH_window_agg.json`` so the CI bench-smoke
job can archive them as an artifact.  The size/step=16 speedup
assertion is the PR's acceptance criterion (≥ 3x).
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
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource

TUPLES = WeatherSource(seed=5).tuples(4_000)
WINDOW_SIZE = 64
OVERLAP_RATIOS = (1, 4, 16)  # size/step: 1 = tumbling, 16 = heavy overlap
AGGREGATIONS = (
    "temperature:avg",
    "windspeed:max",
    "rainrate:sum",
    "humidity:min",
)
#: Outputs with float drift between incremental and recomputed results.
DRIFTING_FIELDS = {"avgtemperature", "sumrainrate"}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_window_agg.json"


def aggregate_graph(window_type, size, step):
    return QueryGraph("weather").append(
        AggregateOperator(
            WindowSpec(window_type, size, step),
            [AggregationSpec.parse(text) for text in AGGREGATIONS],
        )
    )


def timed_run(compiled, graph):
    """Engine throughput for one push_batch of the full stream; returns
    (best-of-3 seconds, outputs of the final run)."""
    best, outputs = None, None
    for _ in range(3):
        engine = StreamEngine() if compiled else StreamEngine.reference()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        handle = engine.register_query(graph.fresh_copy())
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            engine.push_batch("weather", TUPLES)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
        outputs = engine.read(handle)
    return best, outputs


def test_tuple_window_overlap_sweep(benchmark):
    """Columnar incremental vs seed recompute across overlap ratios."""

    def sweep():
        results = {}
        for ratio in OVERLAP_RATIOS:
            step = WINDOW_SIZE // ratio
            graph = aggregate_graph(WindowType.TUPLE, WINDOW_SIZE, step)
            seed_s, seed_out = timed_run(False, graph)
            columnar_s, columnar_out = timed_run(True, graph)
            assert_outputs_equivalent(columnar_out, seed_out, DRIFTING_FIELDS)
            results[ratio] = {
                "size": WINDOW_SIZE,
                "step": step,
                "windows": len(columnar_out),
                "seed_s": seed_s,
                "columnar_s": columnar_s,
                "speedup": seed_s / columnar_s,
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
    _merge_results({"tuple_window": results})
    # Acceptance criterion: ≥ 3x at size/step=16.  As in
    # bench_operator_eval.py, BENCH_SMOKE_RELAXED lowers the gate on
    # noisy shared runners while still catching a disabled fast path.
    floor = 1.5 if os.environ.get("BENCH_SMOKE_RELAXED") else 3.0
    assert results[16]["speedup"] >= floor


def test_time_window_pointer_eviction(benchmark):
    """Sliding time window (300 s size, 75 s step, 30 s sampling) on the
    monotonic pointer-eviction path vs the seed row path."""

    def compare():
        graph = aggregate_graph(WindowType.TIME, 300, 75)
        seed_s, seed_out = timed_run(False, graph)
        columnar_s, columnar_out = timed_run(True, graph)
        # The columnar time path recomputes from column slices, so
        # equality is exact, drift-prone aggregations included.
        assert [t.values for t in columnar_out] == [t.values for t in seed_out]
        return {
            "windows": len(columnar_out),
            "seed_s": seed_s,
            "columnar_s": columnar_s,
            "speedup": seed_s / columnar_s,
        }

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    print_header("Time-window aggregation — pointer eviction vs seed row path")
    print(
        f"  seed {len(TUPLES) / results['seed_s']:>10.0f} t/s"
        f"   columnar {len(TUPLES) / results['columnar_s']:>10.0f} t/s"
        f"   ({results['speedup']:.1f}x, {results['windows']} windows)"
    )
    _merge_results({"time_window": results})


def _merge_results(update: dict) -> None:
    """Accumulate this module's sections into one JSON artifact."""
    data = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            data = {}
    data.update(update)
    data["tuples"] = len(TUPLES)
    data["aggregations"] = list(AGGREGATIONS)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
