"""Per-op latency percentiles for the serving front-end.

The report follows the dbworkload run-table shape — one row per op
type with throughput-free latency columns (mean / stdev / p50 / p90 /
p99 / max, in milliseconds) — rendered by
:func:`~repro.framework.metrics.render_summaries`, which also renders
the simulation's summary table.  Each op is one fixed-memory
:class:`repro.obs.Histogram`: recording never grows memory, and a
report costs the same at a thousand samples as at a billion.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.framework.metrics import DistributionSummary, percentile, render_summaries
from repro.obs import MEMOS, Histogram, Registry


class LatencyRecorder:
    """Accumulates per-op latencies (seconds); reports percentiles.

    Thread-safe: the asyncio server records from its event loop while
    benchmarks snapshot from the driving thread.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}  # guarded by: self._lock
        self._lock = threading.Lock()

    def record(self, op: str, seconds: float) -> None:
        self.record_since(seconds, ((op, 0.0),))

    def record_since(self, ended: float, stamps: Iterable[Tuple[Optional[str], float]]) -> None:
        """Record ``ended - started`` for every ``(op, started)`` of
        *stamps* whose op is not ``None``, under one lock acquisition
        (the server records a flushed burst of replies at once)."""
        with self._lock:
            histograms = self._histograms
            for op, started in stamps:
                if op is not None:
                    histogram = histograms.get(op)
                    if histogram is None:
                        histogram = histograms[op] = Histogram()
                    histogram.record(ended - started)

    def record_many(self, op: str, seconds: Sequence[float]) -> None:
        # 0.0 - (-value) is value exactly.
        self.record_since(0.0, ((op, -value) for value in seconds))

    def merge(self, histograms: Dict[str, Histogram]) -> None:
        """Fold per-op histogram deltas in (a load-generation worker's)."""
        with self._lock:
            for op, histogram in histograms.items():
                mine = self._histograms.get(op)
                self._histograms[op] = (
                    histogram.copy() if mine is None else mine.merge(histogram)
                )

    def histograms(self) -> Dict[str, Histogram]:
        """Copies of every op's histogram, taken at one instant."""
        with self._lock:
            return {op: h.copy() for op, h in sorted(self._histograms.items())}

    def count(self, op: Optional[str] = None) -> int:
        with self._lock:
            if op is not None:
                histogram = self._histograms.get(op)
                return histogram.count if histogram is not None else 0
            return sum(h.count for h in self._histograms.values())

    def summary(self, op: str) -> DistributionSummary:
        with self._lock:
            histogram = self._histograms.get(op, Histogram()).copy()
        return _summarize(histogram)

    def snapshot(self) -> Dict[str, DistributionSummary]:
        """Summaries of every op seen so far — one consistent instant:
        every histogram is copied under a single lock acquisition, so a
        concurrent recorder cannot slip samples in between rows."""
        return {op: _summarize(h) for op, h in self.histograms().items()}

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready percentiles in milliseconds (for ``BENCH_*.json``)."""
        report: Dict[str, Dict[str, float]] = {}
        for op, stats in self.snapshot().items():
            report[op] = {
                "count": stats.count,
                "mean_ms": stats.mean * 1e3,
                "p50_ms": stats.p50 * 1e3,
                "p90_ms": stats.p90 * 1e3,
                "p99_ms": stats.p99 * 1e3,
                "max_ms": stats.maximum * 1e3,
            }
        return report

    def table(self) -> str:
        """The dbworkload-style run table, in milliseconds."""
        return render_summaries("op", self.snapshot().items(), unit="ms")


def _summarize(histogram: Histogram) -> DistributionSummary:
    n = histogram.count
    if n == 0:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    p50, p90, p99 = (percentile(histogram, q) for q in (0.50, 0.90, 0.99))
    return DistributionSummary(
        n, histogram.sum / n, histogram.stdev(), histogram.min,
        p50, p90, p99, histogram.max,
    )


def server_registry(front) -> Registry:
    """The registry an :class:`~repro.serving.server.AsyncDataServer`
    answers a ``stats`` op with.  Every view re-reads its component at
    snapshot time (``front.stats`` may be replaced, an evaluator may be
    attached); the census test pins the names."""
    registry = Registry()

    def instance():
        return front.server.instance

    registry.register("server", lambda: {
        "ops": front.stats.count(),
        "writes": front.writes,
        "latency": front.stats.to_dict(),
        "read_pauses": front.read_pauses,
        "protocol_errors": front.protocol_errors,
        "connections_total": front.connections_total,
        "active_connections": front.active_connections,
        "queue_depth": sum(len(connection.backlog) for connection in front.connections),
        "ingest_runs": front.ingest_runs,
        "ingest_run_ops": front.ingest_run_ops,
    })
    registry.register("timing", lambda: {
        "requests": front.server.requests_processed, **front.timing._asdict()
    })
    registry.register("pdp", lambda: {"cache": instance().pdp.cache_stats()})
    registry.register("store", lambda: {"index": instance().store.index.stats()})
    registry.register("pep.templates", lambda: {
        "hits": instance().pep.templates.hits,
        "misses": instance().pep.templates.misses,
        "entries": len(instance().pep.templates),
    })
    registry.register("engine.active_queries", lambda: instance().engine.active_query_count)
    registry.register("plan", lambda: instance().engine.plan_stats())
    registry.register("graph_manager.revocations", lambda: instance().graph_manager.revocations)
    registry.register("memo", lambda: {name: memo.info() for name, memo in MEMOS.items()}
                      | {"templates": instance().pep.templates.info()})
    return registry
