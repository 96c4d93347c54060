"""Rendering measured results in the shape of the paper's tables/figures."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.framework.metrics import (
    MetricsCollector,
    RequestTrace,
    render_summaries,
    summarize,
)


def summary_table(metrics: MetricsCollector, systems: Sequence[str]) -> str:
    """Mean/percentile table of total response times per system (s)."""
    return render_summaries("system", ((s, metrics.summary(s)) for s in systems))


def breakdown_table(traces: Sequence[RequestTrace], sample_every: int = 1) -> str:
    """Figure-7-style per-request rows: total / PDP / QueryGraph / submit."""
    header = (
        f"{'seq':>5s} {'total':>8s} {'pdp':>9s} {'graph':>9s} "
        f"{'submit':>8s} {'network':>8s}"
    )
    lines = [header]
    for trace in traces[::sample_every]:
        lines.append(
            f"{trace.sequence_no:>5d} {trace.total:>8.3f} {trace.pdp:>9.5f} "
            f"{trace.query_graph:>9.5f} {trace.dsms_submit:>8.3f} "
            f"{trace.network:>8.3f}"
        )
    return "\n".join(lines)


def breakdown_summary(traces: Sequence[RequestTrace]) -> Dict[str, object]:
    """Aggregate the Figure-7 claims into checkable numbers."""
    ok = [t for t in traces if t.outcome == "ok"]
    if not ok:
        return {"count": 0}
    totals = summarize([t.total for t in ok])
    pdp = summarize([t.pdp for t in ok])
    graph = summarize([t.query_graph for t in ok])
    submit_share = sum(t.dsms_submit / t.total for t in ok) / len(ok)
    network_share = sum(t.network / t.total for t in ok) / len(ok)
    sub_second = sum(1 for t in ok if t.total < 1.0) / len(ok)
    # "consistent for over 99% of the requests": fraction within 3× median.
    consistent = sum(1 for t in ok if t.total <= 3 * totals.p50) / len(ok)
    return {
        "count": len(ok),
        "total": totals,
        "pdp": pdp,
        "query_graph": graph,
        "pdp_graph_under_10ms": sum(
            1 for t in ok if (t.pdp + t.query_graph) < 0.01
        ) / len(ok),
        "submit_share": submit_share,
        "network_share": network_share,
        "sub_second_fraction": sub_second,
        "consistent_fraction": consistent,
    }


def improvement_histogram(
    cache_on: Sequence[RequestTrace], cache_off: Sequence[RequestTrace]
) -> Dict[str, float]:
    """Per-request speedup of cache-on vs cache-off (Figure 6(b) claims).

    The paper reports "over 100% improvement ... for nearly 40% of the
    ... requests and at least 10% improvement for the rest".  Requests
    are matched positionally (both runs replay the same Zipf sequence).
    """
    paired = [
        (off.total, on.total)
        for off, on in zip(cache_off, cache_on)
        if off.outcome == "ok" and on.outcome == "ok" and on.total > 0
    ]
    if not paired:
        return {"count": 0.0}
    improvements = [(off - on) / on for off, on in paired]
    over_100 = sum(1 for i in improvements if i >= 1.0) / len(improvements)
    over_10 = sum(1 for i in improvements if i >= 0.10) / len(improvements)
    mean = sum(improvements) / len(improvements)
    return {
        "count": float(len(improvements)),
        "mean_improvement": mean,
        "fraction_over_100pct": over_100,
        "fraction_over_10pct": over_10,
    }


def policy_load_summary(load_times: Sequence[float]) -> Tuple[float, float]:
    """(mean, stdev) of policy load times — the paper reports 0.25 ± 0.06."""
    stats = summarize(list(load_times))
    return stats.mean, stats.stdev
