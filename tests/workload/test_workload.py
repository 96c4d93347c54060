"""Tests for workload generation, Zipf sequences, runner and report."""

import hashlib
import struct

import pytest

from repro.__main__ import main
from repro.framework.metrics import MetricsCollector
from repro.workload.generator import (
    SHAPE_NAMES,
    TABLE3,
    WorkloadGenerator,
)
from repro.workload.report import (
    breakdown_summary,
    breakdown_table,
    improvement_histogram,
    policy_load_summary,
    summary_table,
)
from repro.workload.runner import ExperimentRunner
from repro.workload.zipf import zipf_ranks, zipf_sequence


def small_generator(seed=7, n_requests=120, n_policies=80):
    generator = WorkloadGenerator(seed=seed)
    generator.parameters = generator.parameters._replace(
        n_requests=n_requests, n_policies=n_policies
    )
    return generator


class TestZipf:
    def test_ranks_in_range(self):
        ranks = zipf_ranks(1000, max_rank=50, seed=1)
        assert min(ranks) >= 1 and max(ranks) <= 50

    def test_deterministic(self):
        assert zipf_ranks(100, seed=3) == zipf_ranks(100, seed=3)

    def test_skew_prefers_low_ranks(self):
        ranks = zipf_ranks(20000, alpha=1.2, max_rank=100, seed=1)
        low = sum(1 for r in ranks if r <= 10)
        high = sum(1 for r in ranks if r > 90)
        assert low > high * 2

    def test_weak_alpha_near_uniform(self):
        """α = 0.223 (Table 3) is only mildly skewed."""
        ranks = zipf_ranks(30000, alpha=TABLE3.zipf_alpha, max_rank=300, seed=1)
        top = sum(1 for r in ranks if r <= 30) / len(ranks)
        assert 0.1 < top < 0.3

    def test_sequence_maps_population(self):
        population = ["a", "b", "c", "d"]
        sequence = zipf_sequence(population, 50, max_rank=4, seed=1)
        assert set(sequence) <= set(population)

    def test_population_too_small(self):
        with pytest.raises(ValueError):
            zipf_sequence(["a"], 10, max_rank=5)

    def test_bad_max_rank(self):
        with pytest.raises(ValueError):
            zipf_ranks(10, max_rank=0)


class TestGenerator:
    def test_table3_defaults(self):
        assert TABLE3.n_direct_queries == 1500
        assert TABLE3.direct_query_composition == (160, 170, 130, 124, 254, 290, 372)
        assert TABLE3.n_policies == 1000
        assert TABLE3.zipf_alpha == 0.223
        assert TABLE3.zipf_max_rank == 300

    def test_item_counts(self):
        items = small_generator().generate()
        assert len(items) == 120
        unique_policies = {item.policy.policy_id for item in items}
        assert len(unique_policies) == 80

    def test_shapes_drawn_from_composition(self):
        items = small_generator(n_requests=400, n_policies=400).generate()
        seen = {item.shape for item in items}
        assert seen <= set(SHAPE_NAMES)
        assert len(seen) == len(SHAPE_NAMES)  # all shapes appear at 400 items

    def test_graphs_validate(self):
        generator = small_generator()
        for item in generator.generate():
            schema = generator.streams[item.stream]
            item.graph.validate(schema)

    def test_direct_sql_parses(self):
        from repro.streams.streamsql.parser import parse_streamsql

        for item in small_generator(n_requests=60, n_policies=60).generate():
            parsed = parse_streamsql(item.direct_sql)
            assert [op.kind for op in parsed.graph.operators] == [
                op.kind for op in item.graph.operators
            ]

    def test_requests_match_policies(self):
        from repro.xacml.response import Decision

        for item in small_generator(n_requests=60, n_policies=40).generate():
            assert item.policy.evaluate(item.request) is Decision.PERMIT

    def test_deterministic(self):
        first = small_generator(seed=5).generate()
        second = small_generator(seed=5).generate()
        assert [i.direct_sql for i in first] == [i.direct_sql for i in second]

    def test_reused_policies_for_extra_requests(self):
        items = small_generator(n_requests=120, n_policies=80).generate()
        assert items[80].policy.policy_id == items[0].policy.policy_id

    def test_reuse_wraps_when_requests_exceed_twice_the_policies(self):
        items = small_generator(n_requests=200, n_policies=60).generate()
        assert len(items) == 200
        assert len({item.policy.policy_id for item in items}) == 60
        assert items[120].policy.policy_id == items[0].policy.policy_id
        assert items[199].policy.policy_id == items[199 % 60].policy.policy_id


class TestRunner:
    @pytest.fixture(scope="class")
    def run(self):
        generator = small_generator()
        runner = ExperimentRunner(seed=7, generator=generator)
        items = generator.generate()
        loads = runner.load_policies(items)
        direct = runner.run_direct(items)
        unique = runner.run_unique(items)
        return runner, items, loads, direct, unique

    def test_all_requests_fulfilled(self, run):
        runner, items, _, direct, unique = run
        assert len(direct) == len(items)
        assert len(unique) == len(items)
        assert all(t.outcome == "ok" for t in direct)
        assert all(t.outcome == "ok" for t in unique)

    def test_policy_load_time(self, run):
        """Each load is charged the paper's sampled delay — by the
        runner, after the server's real (and uncharged) load."""
        runner, _, loads, _, _ = run
        assert len(loads) == 80 == len(runner.server.instance.store)
        assert all(0.05 < delay < 0.6 for delay in loads)

    def test_policy_load_calibration(self, run):
        _, _, loads, _, _ = run
        mean, stdev = policy_load_summary(loads)
        assert mean == pytest.approx(0.25, abs=0.03)
        assert stdev == pytest.approx(0.06, abs=0.03)

    def test_direct_faster_on_average(self, run):
        runner, *_ = run
        assert runner.metrics.summary("direct").mean < runner.metrics.summary("exacml+").mean

    def test_pdp_and_graph_small(self, run):
        _, _, _, _, unique = run
        stats = breakdown_summary(unique)
        assert stats["pdp"].mean < 0.01
        assert stats["query_graph"].mean < 0.01

    def test_network_about_two_thirds(self, run):
        _, _, _, _, unique = run
        stats = breakdown_summary(unique)
        assert 0.4 < stats["network_share"] < 0.8

    def test_zipf_cache_improves(self):
        generator_off = small_generator()
        runner_off = ExperimentRunner(seed=7, generator=generator_off, cache_enabled=False)
        items_off = generator_off.generate()
        runner_off.load_policies(items_off)
        off = runner_off.run_zipf(items_off, max_rank=60, system_label="exacml+")

        generator_on = small_generator()
        runner_on = ExperimentRunner(seed=7, generator=generator_on, cache_enabled=True)
        items_on = generator_on.generate()
        runner_on.load_policies(items_on)
        on = runner_on.run_zipf(items_on, max_rank=60)

        assert runner_on.proxy.hit_rate > 0.2
        histogram = improvement_histogram(on, off)
        assert histogram["fraction_over_100pct"] > 0.2
        assert histogram["mean_improvement"] > 0.3

    def test_outcome_counts(self, run):
        runner, items, *_ = run
        counts = runner.outcome_counts()
        assert counts["ok"] == 2 * len(items)


def _digest(values):
    return hashlib.sha256(b"".join(struct.pack("<d", v) for v in values)).hexdigest()


class TestSeededSimulationGolden:
    """Captured at the commit before the simulation moved out of
    ``DataServer``: for a given seed the sampled delays are bit-identical
    whoever charges them (same RNG draw order: outbound transfer →
    compute → dsms_submit → inbound transfer; one draw per loaded
    policy)."""

    @pytest.fixture(scope="class")
    def run(self):
        generator = small_generator(seed=2012, n_requests=200, n_policies=150)
        runner = ExperimentRunner(seed=2012, generator=generator)
        items = generator.generate()
        loads = runner.load_policies(items)
        unique = runner.run_unique(items)
        zipf = runner.run_zipf(items, max_rank=40)
        return loads, unique, zipf

    def test_policy_load_times(self, run):
        loads, _, _ = run
        assert len(loads) == 150
        assert [v.hex() for v in loads[:3]] == [
            "0x1.301f1eff4987dp-2", "0x1.21541eff3dc6fp-2", "0x1.f7d60db516679p-3",
        ]
        assert _digest(loads) == (
            "b399d99c60b6ff64099be28a19aeb04a10fcd22d700ea0b3636f5ab895d50147"
        )

    def test_unique_run_network_seconds(self, run):
        _, unique, _ = run
        assert all(trace.outcome == "ok" for trace in unique)
        assert _digest([trace.network for trace in unique]) == (
            "b6099837948ae27e1ad560c1b095a80ca43997b65e72842f8144ac8c8a4c8699"
        )

    def test_zipf_cached_run_network_seconds(self, run):
        _, _, zipf = run
        assert sum(trace.cache_hit for trace in zipf) == 160
        assert _digest([trace.network for trace in zipf]) == (
            "c4b10877c5b711822c2dd0d71b82f85654125e50fc71d59d692b0602eeead10f"
        )

    GOLDEN_LINE = (
        "loaded 150 policies: mean 0.247 s, stdev 0.060 s (paper: 0.25 ± 0.06)\n"
    )

    def test_cli_policy_load_output(self, capsys):
        argv = ["--seed", "2012", "policy-load", "--policies", "150"]
        assert main(argv + ["--requests", "200"]) == 0
        assert capsys.readouterr().out == self.GOLDEN_LINE

    def test_cli_policy_load_with_default_request_count(self, capsys):
        """1,500 default requests over 150 policies: the reuse index
        used to overrun the policy list (``IndexError``)."""
        assert main(["--seed", "2012", "policy-load", "--policies", "150"]) == 0
        assert capsys.readouterr().out == self.GOLDEN_LINE


class TestReport:
    def test_tables_render(self, ):
        generator = small_generator(n_requests=40, n_policies=40)
        runner = ExperimentRunner(seed=7, generator=generator)
        items = generator.generate()
        runner.load_policies(items)
        traces = runner.run_unique(items)
        runner.run_direct(items)
        table = summary_table(runner.metrics, ["direct", "exacml+"])
        assert "direct" in table and "exacml+" in table
        breakdown = breakdown_table(traces, sample_every=10)
        assert "pdp" in breakdown
        summary = breakdown_summary(traces)
        assert summary["count"] == 40
        assert summary["pdp_graph_under_10ms"] > 0.9

    def test_breakdown_summary_empty(self):
        assert breakdown_summary([]) == {"count": 0}

    def test_improvement_histogram_empty(self):
        assert improvement_histogram([], [])["count"] == 0.0
