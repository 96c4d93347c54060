"""Closed-loop load-generation harness for the serving stack.

``python -m repro.loadgen --duration 5 --target-qps 500 --seed 7``
fires seeded mixed traffic (evaluate / ingest / policy churn, with
Zipf-keyed evaluate subjects) at an :class:`AsyncDataServer` from
multiple worker processes, each holding several pipelined
:class:`AsyncClient` connections, pacing arrivals to a target QPS
with closed-loop admission.  Live per-op percentile tables stream
during the run; the final report — achieved-vs-target QPS, per-op
p50/p90/p99, error/retry/timeout counts — lands in
``BENCH_loadgen.json``.

``config``
    :class:`LoadgenConfig` / :class:`MixWeights` — one frozen
    dataclass fully describing a run.
``mix``
    :class:`OpMixStream` — the seeded deterministic op generator
    (same seed → identical op sequence).
``driver``
    :func:`run_loadgen` — multiprocess workers, pacing, accounting,
    plus the self-serve :class:`ServedInstance` target.
``report``
    Live tables and the JSON artifact.
"""

from repro.loadgen.config import LoadgenConfig, MixWeights
from repro.loadgen.driver import ServedInstance, build_server, run_loadgen
from repro.loadgen.mix import OpMixStream, ZipfSampler, derive_seed
from repro.loadgen.report import build_report, write_report

__all__ = [
    "LoadgenConfig",
    "MixWeights",
    "OpMixStream",
    "ServedInstance",
    "ZipfSampler",
    "build_report",
    "build_server",
    "derive_seed",
    "run_loadgen",
    "write_report",
]
