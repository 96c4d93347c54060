"""Timing instrumentation for the evaluation harness.

Each fulfilled request produces a :class:`RequestTrace` whose fields map
one-to-one onto the series of the paper's Figure 7: total response time,
PDP time, query-graph manipulation time, and DSMS submission time, plus
the simulated network share that Figure 6's discussion attributes about
two thirds of the total to.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple


class RequestTrace(NamedTuple):
    """Timing breakdown of one request (all seconds, virtual clock)."""

    sequence_no: int
    system: str          # "direct" | "exacml+" | "exacml+cache"
    total: float
    pdp: float           # Figure 7 "PDP"
    query_graph: float   # Figure 7 "QueryGraph"
    dsms_submit: float   # Figure 7 "StreamBase"
    network: float
    cache_hit: bool = False
    outcome: str = "ok"  # "ok" | "denied" | "nr" | "pr" | "concurrent" | "invalid"


class DistributionSummary(NamedTuple):
    """Descriptive statistics of a latency sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float


def summarize(samples: Sequence[float]) -> DistributionSummary:
    """Compute the summary statistics used in EXPERIMENTS.md tables."""
    if not samples:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(samples)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((x - mean) ** 2 for x in ordered) / n
    return DistributionSummary(
        count=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=ordered[0],
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        maximum=ordered[-1],
    )


def render_summaries(
    label: str, rows: Iterable[Tuple[str, DistributionSummary]], unit: str = "s"
) -> str:
    """The dbworkload-style run table: one row per named sample of
    seconds, its latency columns in *unit* (``"s"`` or ``"ms"``); the
    label column is as wide as the longest label, and 14 at least."""
    scale = {"s": 1.0, "ms": 1e3}[unit]
    columns = ("mean", "stdev", "p50", "p90", "p99", "max")
    rows = list(rows)
    width = max(14, len(label), *(len(name) for name, _ in rows))
    lines = [f"{label:>{width}s} {'n':>8s}" + "".join(f" {f'{c}({unit})':>10s}" for c in columns)]
    for name, stats in rows:
        values = (stats.mean, stats.stdev, stats.p50, stats.p90, stats.p99, stats.maximum)
        lines.append(f"{name:>{width}s} {stats.count:>8d}" + "".join(f" {v * scale:>10.3f}" for v in values))
    return "\n".join(lines)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


class MetricsCollector:
    """Accumulates request traces and renders evaluation tables."""

    def __init__(self):
        self.traces: List[RequestTrace] = []

    def add(self, trace: RequestTrace) -> None:
        self.traces.append(trace)

    def extend(self, traces: Iterable[RequestTrace]) -> None:
        self.traces.extend(traces)

    def totals(self, system: Optional[str] = None) -> List[float]:
        return [
            t.total
            for t in self.traces
            if (system is None or t.system == system) and t.outcome == "ok"
        ]

    def summary(self, system: Optional[str] = None) -> DistributionSummary:
        return summarize(self.totals(system))

    def ascii_cdf(
        self,
        systems: Sequence[str],
        points: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0),
    ) -> str:
        """Render Figure-6-style CDF rows at fixed time points (log grid),
        one column per system, as wide as the longest name and 14 at least."""
        width = max([14, *map(len, systems)])
        lines = ["time(s)   " + "  ".join(f"{system:>{width}s}" for system in systems)]
        samples = {system: sorted(self.totals(system)) for system in systems}
        for point in points:
            row = [f"{point:7.2f}   "]
            for system in systems:
                ordered = samples[system]
                if not ordered:
                    row.append(f"{'-':>{width}s}  ")
                    continue
                fraction = bisect.bisect_right(ordered, point) / len(ordered)
                row.append(f"{fraction:{width}.3f}  ")
            lines.append("".join(row).rstrip())
        return "\n".join(lines)
