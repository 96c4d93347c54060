"""Tests for metrics, summaries, CDFs and the one summary-table renderer."""

import re

from repro.framework.metrics import (
    MetricsCollector,
    RequestTrace,
    percentile,
    summarize,
)
from repro.serving.stats import LatencyRecorder
from repro.workload.report import summary_table


def trace(total, system="exacml+", seq=1, pdp=0.001, graph=0.001, submit=0.1,
          network=0.2, cache_hit=False, outcome="ok"):
    return RequestTrace(seq, system, total, pdp, graph, submit, network,
                        cache_hit, outcome)


class TestSummaries:
    def test_summarize_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == 2.5

    def test_summarize_empty(self):
        assert summarize([]).count == 0

    def test_percentile_interpolation(self):
        ordered = [0.0, 10.0]
        assert percentile(ordered, 0.5) == 5.0
        assert percentile(ordered, 0.9) == 9.0

    def test_percentile_single(self):
        assert percentile([7.0], 0.99) == 7.0


class TestCollector:
    def build(self):
        collector = MetricsCollector()
        collector.add(trace(0.2, system="direct"))
        collector.add(trace(0.4, system="exacml+"))
        collector.add(trace(0.6, system="exacml+"))
        collector.add(trace(9.9, system="exacml+", outcome="denied"))
        return collector

    def test_totals_filter_outcome_and_system(self):
        collector = self.build()
        assert collector.totals("exacml+") == [0.4, 0.6]
        assert collector.totals("direct") == [0.2]
        assert len(collector.totals()) == 3

    def test_ascii_cdf_renders(self):
        rendered = self.build().ascii_cdf(["direct", "exacml+"])
        assert "direct" in rendered
        assert "0.50" in rendered


class TestOneRenderer:
    """The simulation's summary table and the served run table are one
    layout, each in its own unit."""

    @staticmethod
    def column_ends(line):
        return [match.end() for match in re.finditer(r"\S+", line)]

    def test_both_tables_share_one_layout(self):
        recorder = LatencyRecorder()
        recorder.record("evaluate", 0.001)
        served = recorder.table().splitlines()
        collector = MetricsCollector()
        collector.add(trace(0.5, system="direct"))
        simulated = summary_table(collector, ["direct"]).splitlines()

        assert served[0].split()[2] == "mean(ms)" and served[1].split()[2] == "1.000"
        assert simulated[0].split()[2] == "mean(s)" and simulated[1].split()[2] == "0.500"
        columns = ["n", "mean", "stdev", "p50", "p90", "p99", "max"]
        assert served[0].split()[1:] == ["n"] + [f"{c}(ms)" for c in columns[1:]]
        assert simulated[0].split()[1:] == ["n"] + [f"{c}(s)" for c in columns[1:]]
        assert served[1].split() == ["evaluate", "1"] + ["1.000", "0.000"] + ["1.000"] * 4
        ends = self.column_ends(served[0])
        assert len(ends) == 8
        assert all(self.column_ends(line) == ends for line in served + simulated)

    @staticmethod
    def collector(name):
        collector = MetricsCollector()
        collector.add(trace(0.2, system="direct"))
        for total in (0.4, 0.6):
            collector.add(trace(total, system=name))
        return collector

    def test_labels_of_fourteen_or_fewer_render_as_before(self):
        collector = self.collector("exacml+ cache")
        assert summary_table(collector, ["direct", "exacml+ cache"]) == (
            "        system        n    mean(s)   stdev(s)     p50(s)     p90(s)     p99(s)     max(s)\n"
            "        direct        1      0.200      0.000      0.200      0.200      0.200      0.200\n"
            " exacml+ cache        2      0.500      0.100      0.500      0.580      0.598      0.600"
        )
        assert collector.ascii_cdf(["direct", "exacml+ cache"], points=(0.3, 1.0)) == (
            "time(s)           direct   exacml+ cache\n"
            "   0.30            1.000           0.000\n"
            "   1.00            1.000           1.000"
        )
        assert collector.ascii_cdf([], points=(0.3,)) == "time(s)   \n   0.30"

    def test_a_longer_label_widens_its_column(self):
        name = "exacml+ cache off"      # 17 characters, as bench_fig6b labels a run
        collector = self.collector(name)
        table = summary_table(collector, ["direct", name]).splitlines()
        assert len({tuple(self.column_ends(line)[-8:]) for line in table}) == 1
        cdf = collector.ascii_cdf(["direct", name], points=(0.3, 1.0)).splitlines()
        header_ends = set(self.column_ends(cdf[0]))
        assert all(set(self.column_ends(row)) <= header_ends for row in cdf[1:])
        assert {len(line) for line in cdf} == {len(cdf[0])}

    def test_the_column_widens_one_character_past_fourteen(self):
        widths = {}
        for name in ("x" * 13, "x" * 14, "x" * 15):
            collector = self.collector(name)
            table = summary_table(collector, ["direct", name]).splitlines()
            cdf = collector.ascii_cdf(["direct", name], points=(0.3,)).splitlines()
            assert table[2].startswith(name.rjust(14))
            widths[len(name)] = ({len(line) for line in table}, {len(line) for line in cdf})
        assert widths[13] == widths[14]
        (table_14,), (cdf_14,) = widths[14]
        # One label column in the table; in the CDF both series columns widen.
        assert widths[15] == ({table_14 + 1}, {cdf_14 + 2})

    def test_the_served_table_widens_for_a_long_op_label(self):
        recorder = LatencyRecorder()
        recorder.record("evaluate", 0.001)
        recorder.record("evaluate.decide_only", 0.002)      # 20 characters
        table = recorder.table().splitlines()
        assert [line.split()[0] for line in table[1:]] == ["evaluate", "evaluate.decide_only"]
        assert len({tuple(self.column_ends(line)) for line in table}) == 1
