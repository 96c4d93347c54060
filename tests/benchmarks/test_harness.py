"""The bench harness's own contract, and the census that keeps it the
only timing / gating / artifact code outside ``benchmarks/e2e``."""

import gc
import json
import math
from pathlib import Path

import pytest

from benchmarks import harness
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import WindowType
from repro.streams.schema import DataType, Field, Schema
from repro.streams.sources import WeatherSource
from repro.streams.tuples import StreamTuple

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    return tmp_path


def read(artifact_dir, artifact):
    return json.loads((artifact_dir / f"BENCH_{artifact}.json").read_text())


class TestGate:
    def test_below_the_floor_raises_after_recording(self, artifact_dir):
        with pytest.raises(AssertionError, match="speedup"):
            harness.gate("x", "speedup", 1.2, 1.5)
        assert read(artifact_dir, "x")["gates"]["speedup"] == {
            "value": 1.2, "floor": 1.5,
        }

    @pytest.mark.parametrize("value", [1.5, 9.0])
    def test_at_or_above_the_floor_records_value_and_floor(self, artifact_dir, value):
        harness.gate("x", "speedup", value, 1.5)
        harness.gate("x", "other", 3.0, 2.0)
        assert read(artifact_dir, "x")["gates"] == {
            "speedup": {"value": value, "floor": 1.5},
            "other": {"value": 3.0, "floor": 2.0},
        }

    def test_ceiling_is_an_exclusive_upper_bound(self, artifact_dir):
        harness.gate("x", "seconds", 0.2, ceiling=30.0)
        assert read(artifact_dir, "x")["gates"]["seconds"] == {
            "value": 0.2, "ceiling": 30.0,
        }
        with pytest.raises(AssertionError, match="seconds"):
            harness.gate("x", "seconds", 30.0, ceiling=30.0)


class TestEmit:
    def test_sections_merge_into_one_file(self, artifact_dir):
        harness.emit("x", "first", {"a": 1})
        harness.emit("x", "second", [2, 3])
        harness.emit("x", "first", {"a": 4})
        assert read(artifact_dir, "x") == {"first": {"a": 4}, "second": [2, 3]}

    @pytest.mark.parametrize("corrupt", ["{not json", "[1, 2]", ""])
    def test_a_corrupt_existing_file_is_replaced(self, artifact_dir, corrupt):
        (artifact_dir / "BENCH_x.json").write_text(corrupt)
        harness.emit("x", "section", 1)
        assert read(artifact_dir, "x") == {"section": 1}


class TestTimed:
    def test_gc_is_held_during_and_restored_after(self):
        seen = []
        assert gc.isenabled()
        assert harness.timed(lambda: seen.append(gc.isenabled())) >= 0.0
        assert seen == [False] and gc.isenabled()

    def test_gc_is_restored_when_the_callable_raises(self):
        with pytest.raises(ZeroDivisionError):
            harness.timed(lambda: 1 / 0)
        assert gc.isenabled()

    def test_best_of_rebuilds_the_callable_every_round(self):
        built = []

        def make():
            built.append(len(built))
            return lambda: None

        assert harness.best_of(3, make) >= 0.0
        assert built == [0, 1, 2]


class TestProductionVsOracle:
    def test_reports_both_sides_of_an_equal_run(self):
        graph = QueryGraph("weather").append(
            harness.window_aggregate(WindowType.TUPLE, 4, 1)
        )
        run = harness.production_vs_oracle([graph], WeatherSource(seed=5).tuples(40))
        assert len(run["outputs"][0]) == 37
        assert run["speedup"] == run["oracle_s"] / run["production_s"]
        assert run["plan"]["queries"] == 1

    def test_outputs_one_ulp_apart_are_not_equal(self, monkeypatch):
        schema = Schema("out", [Field("avgx", DataType.DOUBLE)])

        def ingest(build, graphs, tuples):
            value = 1.0 if build is StreamEngine else math.nextafter(1.0, 2.0)
            drained = {"live_nodes": 0, "queries": 0}
            return 0.001, [[StreamTuple(schema, (value,))]], drained, drained

        monkeypatch.setattr(harness, "_ingest", ingest)
        with pytest.raises(AssertionError):
            harness.production_vs_oracle([None], [])


def occurrences(needles, roots):
    """(file, needle) for every needle found under *roots* —
    ``benchmarks/e2e`` (frozen) excepted."""
    found = []
    for root in roots:
        for path in sorted((REPO_ROOT / root).rglob("*")):
            if (
                not path.is_file()
                or path.suffix not in {".py", ".md", ".yml", ".json"}
                or REPO_ROOT / "benchmarks" / "e2e" in path.parents
            ):
                continue
            text = path.read_text()
            found += [
                (str(path.relative_to(REPO_ROOT)), needle)
                for needle in needles
                if needle in text
            ]
    return found


class TestCensus:
    def test_no_bench_script_times_gates_or_writes_on_its_own(self):
        scripts = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        assert scripts
        needles = ("gc.disable", "perf_counter", "RESULTS_PATH", "json.dump")
        offenders = [
            (script.name, needle)
            for script in scripts
            for needle in needles
            if needle in script.read_text()
        ]
        assert offenders == []

    def test_retired_names_occur_nowhere(self):
        """The relaxed-gate env var, the aggregator and its trajectory
        file are gone from code, CI, docs and skills — history
        (CHANGES / ROADMAP / ISSUE) and ``benchmarks/e2e`` excepted."""
        # Split so that this file does not itself contain them.
        needles = ("BENCH_SMOKE" + "_RELAXED", "aggregate" + "_bench", "BENCH_" + "trajectory")
        roots = ("src", "benchmarks", "tests", "docs", "examples", ".github", ".claude")
        assert occurrences(needles, roots) == []

    def test_the_incremental_window_path_is_gone(self):
        """The aggregate states, the rule that picked them and the
        tolerance their drift needed occur in no code, CI or skill
        (``docs/performance.md`` records the deletion, in the past tense)."""
        needles = (
            "Aggregate" + "State", "make" + "_state", "_incremental" + "_pays",
            "_sweep" + "_incremental", "incremental" + "_edge", "deep" + "_windows",
            "DRIFT" + "ING", "drifting" + "_fields",
        )
        roots = ("src", "benchmarks", "tests", "examples", ".github", ".claude")
        assert occurrences(needles, roots) == []
