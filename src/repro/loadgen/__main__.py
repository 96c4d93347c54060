"""CLI entry point: ``python -m repro.loadgen``.

Self-serves a local :class:`AsyncDataServer` unless ``--host`` points
at a running one, drives the seeded closed-loop workload, prints live
per-op percentile tables, and writes the ``BENCH_loadgen.json``
artifact.  Exits non-zero unless every op kind the mix asked for
produced measured samples with ordered percentiles (see
:func:`check_report`) — the smoke-gate contract CI's
``loadgen-smoke`` job relies on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.loadgen.config import LoadgenConfig, MixWeights
from repro.loadgen.driver import run_loadgen


def parse_args(argv) -> LoadgenConfig:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Closed-loop load generation against an AsyncDataServer.",
    )
    defaults = LoadgenConfig()
    parser.add_argument("--duration", type=float, default=defaults.duration,
                        help="run length in seconds, warmup included")
    parser.add_argument("--warmup", type=float, default=defaults.warmup,
                        help="leading seconds excluded from accounting")
    parser.add_argument("--target-qps", type=float, default=defaults.target_qps,
                        help="aggregate arrival rate across all connections")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--processes", type=int, default=defaults.processes,
                        help="worker processes")
    parser.add_argument("--connections", type=int, default=defaults.connections,
                        help="pipelined connections per worker")
    parser.add_argument("--max-burst", type=int, default=defaults.max_burst,
                        help="closed-loop admission cap per batch")
    parser.add_argument("--timeout", type=float, default=defaults.timeout,
                        help="per-batch client deadline in seconds")
    parser.add_argument("--max-retries", type=int, default=defaults.max_retries)
    parser.add_argument("--host", default=None,
                        help="drive an existing server (default: self-serve)")
    parser.add_argument("--port", type=int, default=0,
                        help="port of the existing server (with --host)")
    parser.add_argument("--mix", type=MixWeights.parse, default=defaults.mix,
                        metavar="evaluate=0.78,ingest=0.08,...",
                        help="op-mix weights (normalized)")
    parser.add_argument("--streams", type=int, default=defaults.streams)
    parser.add_argument("--subjects-per-stream", type=int,
                        default=defaults.subjects_per_stream)
    parser.add_argument("--zipf-alpha", type=float, default=defaults.zipf_alpha)
    parser.add_argument("--report-interval", type=float,
                        default=defaults.report_interval)
    parser.add_argument("--output", default=defaults.output,
                        help="artifact path (empty string skips writing)")
    arguments = parser.parse_args(argv)
    if arguments.host is not None and not arguments.port:
        parser.error("--host requires --port")
    # Every flag is named after the LoadgenConfig field it sets.
    options = vars(arguments)
    options["output"] = options["output"] or None
    return LoadgenConfig(**options).validate()


def check_report(config: LoadgenConfig, report: Dict[str, object]) -> List[str]:
    """Why *report* fails the smoke gate (empty when it passes).

    Every op kind with a positive mix weight must have produced
    measured samples, each measured op's percentiles must be ordered
    (``p50 <= p90 <= p99``), and achieved QPS must be positive.
    """
    latency = report["latency_ms"]
    wanted = [f"{kind.capitalize()}Op" for kind, _ in config.mix.normalized()]
    missing = [row for row in wanted if not latency.get(row, {}).get("count")]
    unordered = [
        row for row, stats in latency.items()
        if not stats["p50_ms"] <= stats["p90_ms"] <= stats["p99_ms"]
    ]
    failures = []
    if missing:
        failures.append(f"no measured samples for {missing}")
    if unordered:
        failures.append(f"unordered percentiles for {unordered}")
    if report["achieved"]["qps"] <= 0:
        failures.append("achieved QPS is zero")
    return failures


def main(argv=None) -> int:
    config = parse_args(argv if argv is not None else sys.argv[1:])
    target = (
        f"{config.host}:{config.port}" if config.host else "self-served instance"
    )
    print(
        f"loadgen: {config.processes} process(es) x {config.connections} "
        f"connection(s) -> {target}, target {config.target_qps:.0f} qps "
        f"for {config.duration:.0f}s (warmup {config.warmup:.0f}s), "
        f"seed {config.seed}"
    )
    report = run_loadgen(config, live=True)
    if config.output:
        print(f"wrote {config.output}")
    failures = check_report(config, report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
