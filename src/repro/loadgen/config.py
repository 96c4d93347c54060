"""Configuration for the closed-loop load-generation harness.

One frozen dataclass carries everything a run needs — duration, target
QPS, the seeded op-mix weights, worker/connection topology, and the
workload population — so a run is fully described by its config plus
its seed, and two runs with the same config generate identical op
sequences (pinned by ``tests/loadgen/test_mix.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Table 3's Zipf skew (`repro.workload.zipf`), reused so the served
#: workload's popularity curve matches the simulation's.
DEFAULT_ZIPF_ALPHA = 0.223


@dataclass(frozen=True)
class MixWeights:
    """Categorical op-mix distribution (normalized before sampling).

    The default is evaluate-heavy with a steady trickle of stream
    ingest and policy load/update/revoke churn.
    """

    evaluate: float = 0.78
    ingest: float = 0.08
    load: float = 0.06
    update: float = 0.04
    revoke: float = 0.04

    def normalized(self) -> Tuple[Tuple[str, float], ...]:
        pairs = [
            (kind, weight)
            for kind, weight in (
                ("evaluate", self.evaluate),
                ("ingest", self.ingest),
                ("load", self.load),
                ("update", self.update),
                ("revoke", self.revoke),
            )
            if weight > 0
        ]
        total = sum(weight for _, weight in pairs)
        if total <= 0:
            raise ValueError("op mix needs at least one positive weight")
        return tuple((kind, weight / total) for kind, weight in pairs)

    @classmethod
    def parse(cls, text: str) -> "MixWeights":
        """Parse ``evaluate=0.8,ingest=0.1,load=0.1`` CLI syntax
        (unmentioned kinds get weight 0)."""
        weights: Dict[str, float] = {f.name: 0.0 for f in dataclasses.fields(cls)}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, value = part.partition("=")
            kind = kind.strip()
            if kind not in weights:
                raise ValueError(f"unknown op kind {kind!r} in mix {text!r}")
            weights[kind] = float(value)
        return cls(**weights)


@dataclass(frozen=True)
class LoadgenConfig:
    """Everything one load-generation run needs."""

    #: Total run length (seconds), warmup included.
    duration: float = 10.0
    #: Leading slice excluded from all latency/QPS accounting.
    warmup: float = 1.0
    #: Aggregate arrival rate across every worker and connection.
    target_qps: float = 500.0
    seed: int = 7
    #: Worker processes; each runs ``connections`` pipelined clients.
    processes: int = 2
    connections: int = 2
    #: Closed-loop admission cap: at most this many overdue arrivals
    #: are admitted per pipelined batch when the run falls behind.
    max_burst: int = 32
    #: Per-batch client deadline (seconds).
    timeout: float = 10.0
    #: Resends of retryable-error replies per op (idempotent ops only).
    max_retries: int = 2

    #: Existing server to drive; ``None`` self-serves a local
    #: :class:`AsyncDataServer` on an ephemeral loopback port.
    host: Optional[str] = None
    port: int = 0

    mix: MixWeights = field(default_factory=MixWeights)
    #: Workload population: ``streams`` input streams with
    #: ``subjects_per_stream`` permitted subjects each; evaluate
    #: traffic keys into that population Zipf-distributed.
    streams: int = 4
    subjects_per_stream: int = 25
    zipf_alpha: float = DEFAULT_ZIPF_ALPHA
    #: Fraction of evaluate requests from subjects no policy permits.
    stranger_fraction: float = 0.1
    ingest_batch: int = 5
    #: Evaluate as bare PDP decisions (no PEP workflow / registration).
    decide_only: bool = True

    #: Seconds between live percentile tables (and worker stat ticks).
    report_interval: float = 2.0
    #: Artifact path; ``None`` skips writing.
    output: Optional[str] = "BENCH_loadgen.json"

    def validate(self) -> "LoadgenConfig":
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must satisfy 0 <= warmup < duration")
        if self.target_qps <= 0:
            raise ValueError("target_qps must be positive")
        if self.processes < 1 or self.connections < 1:
            raise ValueError("processes and connections must be >= 1")
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")
        if self.streams < 1 or self.subjects_per_stream < 1:
            raise ValueError("population needs >= 1 stream and subject")
        if not 0 <= self.stranger_fraction < 1:
            raise ValueError("stranger_fraction must be in [0, 1)")
        self.mix.normalized()  # raises on an all-zero mix
        return self

    @property
    def total_connections(self) -> int:
        return self.processes * self.connections

    @property
    def per_connection_qps(self) -> float:
        return self.target_qps / self.total_connections

    @property
    def measure_seconds(self) -> float:
        return self.duration - self.warmup

    def describe(self) -> Dict[str, object]:
        """JSON-ready echo of the knobs that shaped the run."""
        return {
            "duration_s": self.duration,
            "warmup_s": self.warmup,
            "target_qps": self.target_qps,
            "seed": self.seed,
            "processes": self.processes,
            "connections_per_process": self.connections,
            "max_burst": self.max_burst,
            "timeout_s": self.timeout,
            "max_retries": self.max_retries,
            "mix": dict(self.mix.normalized()),
            "streams": self.streams,
            "subjects_per_stream": self.subjects_per_stream,
            "zipf_alpha": self.zipf_alpha,
            "stranger_fraction": self.stranger_fraction,
            "ingest_batch": self.ingest_batch,
            "decide_only": self.decide_only,
        }
