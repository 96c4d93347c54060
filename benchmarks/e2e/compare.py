"""Compare two reports of ``benchmarks/e2e/run.py --out``.

    python -m benchmarks.e2e.compare A.json B.json

prints one row per (workload, end-to-end metric): both medians, the
min-max of their windows, the relative difference, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       B is worse than A by more than the bound *and* by more
                than the spread of the windows;
``unresolved``  the spread (distance between the first and third
                quartile of a report's windows, as a share of their
                median; the wider of the two reports) exceeds the
                bound, so the bound cannot be told from the noise —
                unless every window of B reads better than every
                window of A, which is ``ok``.

Exits 1 if any row is ``worse``, if B failed a larger share of its ops
than A on any workload, or if either report is marked incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def spread(windows: Sequence[float]) -> float:
    """Quartile distance over the median; 0 for fewer than two windows."""
    if len(windows) < 2:
        return 0.0
    first, _, third = statistics.quantiles(windows, n=4)
    middle = statistics.median(windows)
    return abs(third - first) / abs(middle) if middle else 0.0


def verdict(a: Dict, b: Dict, lower_is_better: bool, bound: float) -> Dict[str, object]:
    """One row: *a* and *b* are ``{"value": median, "windows": [...]}``."""
    sign = 1.0 if lower_is_better else -1.0
    base = a["value"]
    difference = (b["value"] - base) / abs(base) if base else 0.0
    worse_by = sign * difference
    noise = max(spread(a["windows"]), spread(b["windows"]))
    b_always_better = (
        max(sign * w for w in b["windows"]) < min(sign * w for w in a["windows"])
    )
    if worse_by > bound and worse_by > noise:
        mark = "worse"
    elif noise > bound and not b_always_better:
        mark = "unresolved"
    else:
        mark = "ok"
    return {"difference": difference, "spread": noise, "verdict": mark}


def failed_share(result: Dict) -> float:
    return result["failed"] / max(result["attempted"], 1)


def compare(a: Dict, b: Dict, benchmark: Dict) -> List[Dict[str, object]]:
    """Rows for every (workload, end-to-end metric) both reports hold."""
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        run_a = a["workloads"][workload]["end_to_end"]
        run_b = b["workloads"][workload]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            one, other = run_a["metrics"][name], run_b["metrics"][name]
            row = verdict(one, other, metric["better"] == "lower", metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], a=one, b=other)
            rows.append(row)
        share_a, share_b = failed_share(run_a), failed_share(run_b)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio", "bound": 0.0,
            "a": {"value": share_a, "windows": [share_a]},
            "b": {"value": share_b, "windows": [share_b]},
            "difference": share_b - share_a, "spread": 0.0,
            "verdict": "worse" if share_b > share_a else "ok",
        })
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    def cell(entry: Dict) -> str:
        low, high = min(entry["windows"]), max(entry["windows"])
        return f"{entry['value']:12.4f} [{low:.4f} .. {high:.4f}]"

    lines = [f"{'workload':14s} {'metric':22s} {'unit':6s} {'A median [min .. max]':40s} "
             f"{'B median [min .. max]':40s} {'diff':>8s} {'spread':>7s} {'bound':>6s} verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:14s} {row['metric']:22s} {row['unit']:6s} {cell(row['a']):40s} "
            f"{cell(row['b']):40s} {row['difference']:+8.1%} {row['spread']:7.1%} "
            f"{row['bound']:6.0%} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the parent's report (BENCH_e2e.json)")
    parser.add_argument("b", help="the change's report")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    print(render(rows))
    counts = {mark: sum(row["verdict"] == mark for row in rows)
              for mark in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved"
          f"; A correct: {a['correct']}, B correct: {b['correct']}")
    if a["seed"] != b["seed"]:
        print(f"note: different seeds ({a['seed']} and {b['seed']}): different inputs")
    return 1 if counts["worse"] or not (a["correct"] and b["correct"]) else 0


if __name__ == "__main__":
    sys.exit(main())
