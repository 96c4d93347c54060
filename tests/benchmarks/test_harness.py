"""The bench harness's own contract, and the census that keeps it the
only timing / gating / artifact code outside ``benchmarks/e2e``."""

import gc
import json
from pathlib import Path

import pytest

from benchmarks import harness

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
        offenders = []
        for root in roots:
            for path in sorted((REPO_ROOT / root).rglob("*")):
                if (
                    not path.is_file()
                    or path.suffix not in {".py", ".md", ".yml", ".json"}
                    or REPO_ROOT / "benchmarks" / "e2e" in path.parents
                ):
                    continue
                text = path.read_text()
                offenders += [
                    (str(path.relative_to(REPO_ROOT)), needle)
                    for needle in needles
                    if needle in text
                ]
        assert offenders == []
