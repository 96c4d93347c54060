"""Loopback end-to-end smoke of the closed-loop harness.

One short self-served run (real spawned worker process, real loopback
sockets) must produce a well-shaped report: non-zero achieved QPS,
ordered per-op percentiles, coherent counters, and the JSON artifact
on disk, and the target rate sustained.  Kept small — the full-scale
run is ``python -m repro.loadgen`` in the ``loadgen-smoke`` CI job.
"""

import json
from pathlib import Path

import pytest

from repro.loadgen.__main__ import check_report
from repro.loadgen.config import LoadgenConfig
from repro.loadgen.driver import run_loadgen


@pytest.fixture(scope="module")
def report_and_path(tmp_path_factory):
    output = tmp_path_factory.mktemp("loadgen") / "BENCH_loadgen.json"
    config = LoadgenConfig(
        duration=2.0,
        warmup=0.5,
        target_qps=300.0,
        seed=11,
        processes=1,
        connections=2,
        streams=2,
        subjects_per_stream=10,
        report_interval=60.0,  # no live ticks needed
        output=str(output),
    )
    return run_loadgen(config), output


class TestEndToEnd:
    def test_achieved_qps_is_positive(self, report_and_path):
        report, _ = report_and_path
        achieved = report["achieved"]
        assert achieved["qps"] > 0
        assert achieved["measured_completions"] > 0
        # The closed loop makes shortfall honest: a lagging server or a
        # pacing bug lowers achieved QPS instead of hiding a backlog.
        assert 0.5 <= achieved["attainment"] <= 2.0
        assert achieved["target_qps"] == 300.0

    def test_percentiles_are_present_and_ordered(self, report_and_path):
        report, _ = report_and_path
        latency = report["latency_ms"]
        assert "EvaluateOp" in latency
        for op, stats in latency.items():
            assert stats["count"] > 0, op
            assert (
                stats["p50_ms"] <= stats["p90_ms"]
                <= stats["p99_ms"] <= stats["max_ms"]
            ), op

    def test_real_run_passes_the_cli_exit_checks(self, report_and_path):
        report, _ = report_and_path
        # The fixture runs the default mix, so all five op kinds are due.
        assert check_report(LoadgenConfig(), report) == []

    def test_counters_are_coherent(self, report_and_path):
        report, _ = report_and_path
        assert report["completed"] > 0
        assert report["completed"] <= report["issued"] + report["retries"]
        assert report["timeouts"] == 0
        assert report["errors"] == {}
        # Every measured sample is a completed op.
        measured = sum(s["count"] for s in report["latency_ms"].values())
        assert measured <= report["completed"]

    def test_report_echoes_the_config(self, report_and_path):
        report, _ = report_and_path
        config = report["config"]
        assert config["seed"] == 11
        assert config["target_qps"] == 300.0
        assert config["processes"] == 1
        assert report["model"] == "measured"

    def test_artifact_written_and_loadable(self, report_and_path):
        report, output = report_and_path
        assert Path(output).exists()
        from_disk = json.loads(Path(output).read_text())
        assert from_disk["achieved"]["measured_completions"] == (
            report["achieved"]["measured_completions"]
        )
        assert "table" in from_disk

    def test_self_served_run_includes_server_side_latency(self, report_and_path):
        report, _ = report_and_path
        server = report["server"]
        assert server["server.latency.EvaluateOp.count"]
        # The server section is the server's own registry: its per-op
        # counts add up to the ops it answered, which cover every op the
        # workers saw completed.
        counts = sum(
            value for name, value in server.items()
            if name.startswith("server.latency.") and name.endswith(".count")
        )
        assert counts == server["server.ops"] >= report["completed"]


class TestConfigValidation:
    def test_warmup_must_fit_inside_duration(self):
        with pytest.raises(ValueError, match="warmup"):
            LoadgenConfig(duration=1.0, warmup=1.0).validate()

    def test_target_qps_must_be_positive(self):
        with pytest.raises(ValueError, match="target_qps"):
            LoadgenConfig(target_qps=0).validate()
