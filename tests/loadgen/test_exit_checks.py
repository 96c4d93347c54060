"""The loadgen CLI's exit contract (`repro.loadgen.__main__.check_report`).

`python -m repro.loadgen` is the one served-load entry point and CI's
smoke gate, so what makes it exit non-zero is pinned here on synthetic
reports: an op kind the mix asked for with no measured samples,
unordered percentiles, or zero achieved QPS.
"""

from repro.loadgen.__main__ import check_report
from repro.loadgen.config import LoadgenConfig, MixWeights


def row(count=10, p50=1.0, p90=2.0, p99=3.0):
    return {"count": count, "p50_ms": p50, "p90_ms": p90, "p99_ms": p99}


def report(latency, qps=100.0):
    return {"latency_ms": latency, "achieved": {"qps": qps}}


ALL_OPS = ("EvaluateOp", "IngestOp", "LoadOp", "UpdateOp", "RevokeOp")


def test_every_requested_op_measured_and_ordered_passes():
    assert check_report(LoadgenConfig(), report({op: row() for op in ALL_OPS})) == []


def test_requested_op_without_samples_fails():
    latency = {op: row() for op in ALL_OPS}
    del latency["RevokeOp"]
    latency["IngestOp"] = row(count=0)
    failures = check_report(LoadgenConfig(), report(latency))
    assert failures == ["no measured samples for ['IngestOp', 'RevokeOp']"]


def test_zero_weight_op_is_not_required():
    config = LoadgenConfig(mix=MixWeights.parse("evaluate=0.9,ingest=0.1"))
    latency = {"EvaluateOp": row(), "IngestOp": row()}
    assert check_report(config, report(latency)) == []
    assert check_report(config, report({"EvaluateOp": row()})) == [
        "no measured samples for ['IngestOp']"
    ]


def test_unordered_percentiles_fail():
    latency = {op: row() for op in ALL_OPS}
    latency["LoadOp"] = row(p50=5.0, p90=2.0, p99=9.0)
    assert check_report(LoadgenConfig(), report(latency)) == [
        "unordered percentiles for ['LoadOp']"
    ]


def test_zero_achieved_qps_fails():
    latency = {op: row() for op in ALL_OPS}
    assert check_report(LoadgenConfig(), report(latency, qps=0.0)) == [
        "achieved QPS is zero"
    ]
