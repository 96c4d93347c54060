"""``benchmarks/pairs.py``: alternation, quartiles, the claim verdict and
the A/A mode, over fake runs — no server is started.  The last test
clones a throwaway repository whose ``benchmarks/e2e/run.py`` only
prints a result line, so the clone-and-run path is exercised too."""

import json
import subprocess
import textwrap

import pytest

from benchmarks import pairs

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput_rps", "unit": "ops/s", "better": "higher", "bound": 0.15},
        {"name": "server_cpu_us_per_op", "unit": "us", "better": "lower", "bound": 0.15},
    ],
    "per_layer": [{"name": "client.closed_p50_ms", "unit": "ms", "better": "lower"}],
}


def result(throughput, cpu=100.0, failed=0, correct=True):
    return {"correct": correct, "attempted": 1000, "failed": failed, "metrics": {
        "throughput_rps": {"value": throughput, "unit": "ops/s"},
        "server_cpu_us_per_op": {"value": cpu, "unit": "us"},
    }}


class FakeRuns:
    """``run(side)`` that logs the call order and replays given values."""

    def __init__(self, base, change):
        self.values = {"base": iter(base), "change": iter(change)}
        self.calls = []

    def __call__(self, side):
        self.calls.append(side)
        return result(next(self.values[side]))


class TestAlternation:
    def test_the_first_side_alternates_starting_with_the_base(self):
        runs = FakeRuns([100] * 4, [110] * 4)
        pairs.run_pairs(4, runs, report=lambda line: None)
        assert runs.calls == ["base", "change", "change", "base",
                              "base", "change", "change", "base"]

    def test_each_pair_keeps_its_own_two_results(self):
        runs = FakeRuns([100, 200, 300], [110, 220, 330])
        lines = []
        got = pairs.run_pairs(3, runs, report=lines.append)
        assert [(p["base"]["metrics"]["throughput_rps"]["value"],
                 p["change"]["metrics"]["throughput_rps"]["value"]) for p in got] == [
            (100, 110), (200, 220), (300, 330)]
        assert lines[1].startswith("pair 2/3  change first  throughput_rps 200.00 -> 220.00")


class TestQuartiles:
    def test_median_and_interquartile_range(self):
        assert pairs.quartiles([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]) == (2.75, 5.5, 8.25)

    def test_one_value_has_no_spread(self):
        assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestVerdict:
    BASE = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]

    def test_nine_of_ten_ahead_and_a_gap_above_the_iqr_is_a_claim(self):
        change = [b + 10 for b in self.BASE[:9]] + [self.BASE[9] - 1]
        row = pairs.verdict(self.BASE, change, "higher")
        assert (row["ahead"], row["pairs"], row["verdict"]) == (9, 10, "claim")
        assert row["ratio"] == pytest.approx(110 / 100)
        assert row["base_iqr"] == 2.0

    def test_eight_of_ten_ahead_is_no_claim(self):
        change = [b + 10 for b in self.BASE[:8]] + [b - 1 for b in self.BASE[8:]]
        assert pairs.verdict(self.BASE, change, "higher")["verdict"] == "-"

    def test_a_gap_inside_the_base_iqr_is_no_claim(self):
        change = [b + 1 for b in self.BASE]
        row = pairs.verdict(self.BASE, change, "higher")
        assert row["ahead"] == 10 and row["verdict"] == "-"

    def test_lower_is_better_counts_a_fall_as_ahead(self):
        row = pairs.verdict([100.0] * 4, [88.0] * 4, "lower")
        assert (row["ahead"], row["ratio"], row["verdict"]) == (4, 0.88, "claim")

    def test_a_median_worse_by_more_than_the_bound_is_worse(self):
        assert pairs.verdict([100.0] * 3, [84.0] * 3, "higher", 0.15)["verdict"] == "worse"
        assert pairs.verdict([100.0] * 3, [86.0] * 3, "higher", 0.15)["verdict"] == "-"
        assert pairs.verdict([100.0] * 3, [84.0] * 3, "higher")["verdict"] == "-"


@pytest.fixture
def benchmark_root(tmp_path, monkeypatch):
    """``pairs.ROOT`` holding :data:`BENCHMARK` as its ``BENCHMARK.json``."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    return tmp_path


def table_rows(out):
    """The run table's cells, by metric."""
    lines = out.split("\n\n")[1].splitlines()
    return {line.split()[0]: line.split() for line in lines[2:]}


class TestMain:
    def test_a_claim_is_printed_in_the_run_table(self, capsys, benchmark_root):
        runs = FakeRuns([100, 101, 99, 100], [120, 121, 119, 120])
        code = pairs.main(["--base", "a", "--change", "b", "--workload", "w",
                           "--pairs", "4"], run=runs)
        out = capsys.readouterr().out
        rows = table_rows(out)
        assert code == 0
        assert rows["throughput_rps"][-3:] == ["1.200", "4/4", "claim"]
        assert rows["server_cpu_us_per_op"][-3:] == ["1.000", "0/4", "-"]
        assert "client.closed_p50_ms" not in rows       # no run reports it
        assert out.startswith("pair 1/4  base first")
        assert "8/8 runs correct; failed ops base 0, change 0" in out

    def test_a_a_mode_says_so_and_claims_nothing(self, capsys, benchmark_root):
        same = [100, 103, 98, 101, 99, 102]
        code = pairs.main(["--base", "HEAD", "--change", "HEAD", "--workload", "w",
                           "--pairs", "6"], run=FakeRuns(same, same))
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("A/A: both sides are HEAD")
        assert table_rows(out)["throughput_rps"][-3:] == ["1.000", "0/6", "-"]

    def test_an_incorrect_run_or_more_failed_ops_exits_one(self, benchmark_root):
        argv = ["--base", "a", "--change", "b", "--workload", "w", "--pairs", "1"]
        wrong = {"base": result(100), "change": result(110, correct=False)}
        assert pairs.main(argv, run=wrong.get) == 1
        failing = {"base": result(100), "change": result(110, failed=1)}
        assert pairs.main(argv, run=failing.get) == 1


#: A stand-in for the benchmark: prints one result line whose
#: throughput is the checkout's VALUE file, after logging its own run.
FAKE_RUN = textwrap.dedent("""\
    import json, os, pathlib, sys
    value = float(pathlib.Path("VALUE").read_text())
    with open(os.environ["PAIRS_TEST_LOG"], "a") as log:
        log.write(f"{value:g} {os.environ.get('PYTHONPATH')} {' '.join(sys.argv[1:])}\\n")
    print("a line that is not the result")
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "throughput_rps": {"value": value, "unit": "ops/s"}}}))
""")


def git(repo, *argv):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *argv], check=True, capture_output=True)


class TestCloneAndRun:
    def test_each_side_runs_from_its_own_clone_of_its_revision(
            self, tmp_path, capsys, monkeypatch, benchmark_root):
        repo, log = tmp_path / "repo", tmp_path / "runs.log"
        (repo / "benchmarks" / "e2e").mkdir(parents=True)
        (repo / "benchmarks" / "e2e" / "run.py").write_text(FAKE_RUN)
        git(tmp_path, "init", "--quiet", str(repo))
        for value in ("100", "125"):
            (repo / "VALUE").write_text(value)
            git(repo, "add", "-A")
            git(repo, "commit", "--quiet", "-m", value)
        (repo / "VALUE").write_text("1")        # uncommitted: no clone sees it
        monkeypatch.setenv("PAIRS_TEST_LOG", str(log))
        monkeypatch.setenv("PYTHONPATH", "/nowhere")
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        code = pairs.main(["--base", "HEAD~1", "--change", "HEAD", "--workload", "w",
                           "--pairs", "2", "--seed", "5", "--seconds", "1.5",
                           "--repo", str(repo), "--scratch", str(scratch)])
        assert code == 0
        runs = log.read_text().splitlines()
        assert runs == [f"{value} None --workload w --seed 5 --seconds 1.5 --trace 0"
                        for value in ("100", "125", "125", "100")]
        assert table_rows(capsys.readouterr().out)["throughput_rps"][-3:] == [
            "1.250", "2/2", "claim"]
        assert list(scratch.iterdir()) == []       # the clones are gone
        # A path names a checkout whose committed HEAD is cloned.
        assert pairs.resolve(repo, str(repo)) == (str(repo), None)
