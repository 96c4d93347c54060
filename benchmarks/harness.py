"""The one bench harness outside ``benchmarks/e2e``.

Every ``bench_*.py`` regenerates one table or figure of the paper's
Section 4.2, an ablation of a design choice, or the speed-up a fast
path holds over its oracle.  This module is the only place among them
that reads a clock, holds the GC, repeats a measurement, compares
production against an oracle, applies a floor or writes a
``BENCH_*.json`` (``tests/benchmarks/test_harness.py`` pins that).

Latency figures of the paper benchmarks are *virtual-clock* seconds
from the calibrated network simulation; the real computation (PDP,
merging, NR/PR, SQL generation, engine registration) is executed and
measured for real.  Heavy replays use ``benchmark.pedantic(...,
rounds=1)`` — the workload itself is the unit of measurement; micro
benchmarks use pytest-benchmark's default calibration.
"""

import gc
import json
import resource
import time
from pathlib import Path

from repro.streams.engine import StreamEngine
from repro.streams.operators import AggregateOperator, AggregationSpec, WindowSpec
from repro.streams.schema import WEATHER_SCHEMA
from repro.workload.generator import TABLE3, WorkloadGenerator
from repro.workload.runner import ExperimentRunner

#: ``BENCH_<artifact>.json`` files land here (gitignored, archived by CI).
ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
LONG_ROUND_S = 0.5


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_cpu(fn):
    """``(wall, cpu)`` seconds of one ``fn()`` with the GC collected, then
    held off the measured window: single-shot timings are otherwise at
    the mercy of a wandering gen2 pause against the session's
    accumulated heap, landing in an arbitrary side of a comparison.
    *cpu* is ``getrusage(RUSAGE_SELF)`` user + system time: every thread
    of this process and none of its children, so under a worker pool
    it is the parent's share alone."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started, cpu = time.perf_counter(), _cpu_seconds()
        fn()
        return time.perf_counter() - started, _cpu_seconds() - cpu
    finally:
        if was_enabled:
            gc.enable()


def timed(fn) -> float:
    """Wall-clock seconds of one ``fn()``, as :func:`timed_cpu`."""
    return timed_cpu(fn)[0]


def best_wall_and_cpu(n, make):
    """The least wall and the least CPU seconds (:func:`timed_cpu`) over
    up to *n* rounds, each of a callable freshly built by ``make()`` —
    so setup (cold caches, new engines) is redone every round and stays
    outside the measured window.  A round of ``LONG_ROUND_S`` or more
    is not repeated: repetition guards against a preemption flipping a
    short measurement, and costs seconds where it guards nothing."""
    best = timed_cpu(make())
    for _ in range(n - 1):
        if best[0] >= LONG_ROUND_S:
            break
        best = tuple(map(min, best, timed_cpu(make())))
    return best


def best_of(n, make) -> float:
    """The least wall-clock seconds of :func:`best_wall_and_cpu`."""
    return best_wall_and_cpu(n, make)[0]


def _ingest(build, graphs, tuples):
    """Best time over fresh engines from *build* to ``push_batch`` and
    read every query's output (production builds a tuple only when an
    output is read, the oracle at once: both sides do the same work);
    the last engine's outputs per graph, its plan stats with every query
    registered, and again after all of them withdrew."""
    source = graphs[0].source
    last = {}

    def make():
        engine = build()
        engine.register_input_stream(source, WEATHER_SCHEMA)
        handles = [engine.register_query(g) for g in graphs]

        def run():
            engine.push_batch(source, tuples)
            last["outputs"] = [engine.read(handle) for handle in handles]

        last["engine"], last["handles"] = engine, handles
        return run

    seconds = best_of(ROUNDS, make)
    engine, handles, outputs = last["engine"], last["handles"], last["outputs"]
    plan = engine.plan_stats().get(source)
    for handle in handles:
        engine.withdraw(handle)
    return seconds, outputs, plan, engine.plan_stats().get(source)


def production_vs_oracle(graphs, tuples):
    """Push *tuples* through *graphs* registered on ``StreamEngine()``
    and on ``StreamEngine.reference()``: best ingest time per side,
    every query's outputs asserted equal, and the production plan
    asserted to release every node once its queries withdraw.

    Returns ``oracle_s``, ``production_s``, ``speedup``, the production
    ``outputs`` (one list per graph) and its ``plan`` stats as they
    stood with every query registered.
    """
    oracle_s, expected, _, _ = _ingest(StreamEngine.reference, graphs, tuples)
    production_s, outputs, plan, drained = _ingest(StreamEngine, graphs, tuples)
    for got, want in zip(outputs, expected):
        assert [t.values for t in got] == [t.values for t in want]
    assert drained["live_nodes"] == 0 and drained["queries"] == 0, drained
    return {
        "oracle_s": oracle_s,
        "production_s": production_s,
        "speedup": oracle_s / production_s,
        "outputs": outputs,
        "plan": plan,
    }


#: The window aggregation the stream benchmarks measure.
AGGREGATIONS = ("temperature:avg", "windspeed:max", "rainrate:sum", "humidity:min")


def window_aggregate(window_type, size, step):
    return AggregateOperator(
        WindowSpec(window_type, size, step),
        [AggregationSpec.parse(text) for text in AGGREGATIONS],
    )


def _load(artifact):
    path = ROOT / f"BENCH_{artifact}.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = None
    return path, data if isinstance(data, dict) else {}


def _store(path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def emit(artifact, section, data) -> None:
    """Set *section* of ``BENCH_<artifact>.json``, keeping the sections
    other tests of the same script wrote (an unreadable file is
    replaced, not fatal)."""
    path, merged = _load(artifact)
    merged[section] = data
    _store(path, merged)


def gate(artifact, name, value, floor=None, ceiling=None) -> None:
    """Record *value* beside its bound under the artifact's ``gates``
    section, then fail unless ``value >= floor`` (``value < ceiling``).

    One bound per gate, the one CI enforces: loose enough for a noisy
    shared runner, tight enough that a disabled or broken fast path
    (which measures ~1x) cannot pass.  The measured ratios live in the
    artifacts and ``docs/performance.md``.
    """
    bound = {"floor": floor} if ceiling is None else {"ceiling": ceiling}
    path, merged = _load(artifact)
    merged.setdefault("gates", {})[name] = {"value": value, **bound}
    _store(path, merged)
    if ceiling is None:
        assert value >= floor, f"{name}: {value:.3g} is below the floor {floor}"
    else:
        assert value < ceiling, f"{name}: {value:.3g} is not under the ceiling {ceiling}"


def make_runner(seed=2012, n_requests=TABLE3.n_requests,
                n_policies=TABLE3.n_policies, **runner_kwargs):
    """A fresh generator+runner pair at the requested workload scale."""
    generator = WorkloadGenerator(seed=seed)
    generator.parameters = generator.parameters._replace(
        n_requests=n_requests, n_policies=n_policies
    )
    runner = ExperimentRunner(seed=seed, generator=generator, **runner_kwargs)
    return runner, generator


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
