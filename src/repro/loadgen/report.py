"""Live tables and the ``BENCH_loadgen.json`` artifact.

The live view is the dbworkload-style run table the serving stack
already renders (:meth:`LatencyRecorder.table`) plus an
achieved-vs-target line; the final artifact lands at the repo root as
``BENCH_loadgen.json`` (archived by the ``loadgen-smoke`` CI job), so
the serving stack's throughput and tail-latency claims travel with the
repo as reproducible numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict

from repro.loadgen.config import LoadgenConfig
from repro.serving.stats import LatencyRecorder


class LiveReporter:
    """Throttled live rendering over the parent-side accumulators."""

    def __init__(
        self,
        config: LoadgenConfig,
        recorder: LatencyRecorder,
        counters: Dict[str, object],
    ):
        self.config = config
        self.recorder = recorder
        self.counters = counters
        self._started = time.monotonic()
        self._last_printed = self._started
        self._last_count = 0

    def _achieved_line(self) -> str:
        """Period throughput (dbworkload-style): completions since the
        last table over the elapsed period — exact mid-run, unlike a
        cumulative rate diluted by worker spawn time."""
        now = time.monotonic()
        elapsed = now - self._started
        count = self.recorder.count()
        period_seconds = max(now - self._last_printed, 1e-9)
        period_qps = (count - self._last_count) / period_seconds
        self._last_count = count
        errors = sum(self.counters["errors"].values())
        return (
            f"  t+{elapsed:5.1f}s  period {period_qps:8.1f} qps "
            f"(target {self.config.target_qps:.0f})  "
            f"completed {self.counters['completed']}  errors {errors}  "
            f"retries {self.counters['retries']}  "
            f"timeouts {self.counters['timeouts']}"
        )

    def maybe_print(self) -> None:
        now = time.monotonic()
        if now - self._last_printed < self.config.report_interval:
            return
        if self.recorder.count():
            print(self.recorder.table())
        line = self._achieved_line()  # reads then advances the period
        self._last_printed = now
        print(line, flush=True)

    def print_final(self, report: Dict[str, object]) -> None:
        print()
        print(report["table"])
        achieved = report["achieved"]
        print(
            f"  achieved {achieved['qps']:.1f} qps of "
            f"{achieved['target_qps']:.0f} target "
            f"({achieved['attainment']:.2f} attainment) over "
            f"{achieved['measure_seconds']:.1f} measured seconds "
            f"({self.config.warmup:.1f}s warmup excluded)"
        )
        errors = report["errors"]
        print(
            f"  errors {sum(errors.values())} {errors if errors else ''} "
            f" retries {report['retries']}  timeouts {report['timeouts']}  "
            f"reconnects {report['reconnects']}",
            flush=True,
        )


def build_report(
    config: LoadgenConfig,
    recorder: LatencyRecorder,
    counters: Dict[str, object],
    wall_seconds: float,
) -> Dict[str, object]:
    """The machine-readable run summary (the artifact's content).

    Achieved QPS is measured-window completions over the configured
    measure window: every sample the recorder holds arrived after
    warmup, so ``count / (duration - warmup)`` is exact even though
    worker clocks are never compared across processes.
    """
    measured_completions = recorder.count()
    achieved_qps = measured_completions / config.measure_seconds
    report: Dict[str, object] = {
        "model": "measured",
        "config": config.describe(),
        "achieved": {
            "qps": achieved_qps,
            "target_qps": config.target_qps,
            "attainment": achieved_qps / config.target_qps,
            "measured_completions": measured_completions,
            "measure_seconds": config.measure_seconds,
            "wall_seconds": wall_seconds,
        },
        "issued": counters["issued"],
        "completed": counters["completed"],
        "retries": counters["retries"],
        "timeouts": counters["timeouts"],
        "reconnects": counters["reconnects"],
        "errors": dict(sorted(counters["errors"].items())),
        "latency_ms": recorder.to_dict(),
        "table": recorder.table(),
    }
    return report


def write_report(report: Dict[str, object], path: str) -> Path:
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target
