"""Smoke test of the end-to-end benchmark (about two minutes).

    PYTHONPATH=src python -m pytest benchmarks/e2e/smoke.py -q

Named ``smoke.py`` so tier-1's default ``test_*.py`` collection does
not pick it up.  ``--quick`` runs exercise every code path — set-up,
priming, output verification, closed and paced windows, the traced
run, the oracle, the digests — without producing usable numbers.
Linux only, like the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *arguments], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def no_stray_server() -> bool:
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True)
    return "benchmarks.e2e.serve" not in listing.stdout


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One ``--quick`` run of the one command, all workloads, both passes."""
    out = tmp_path_factory.mktemp("e2e") / "BENCH_e2e.json"
    done = run("--quick", "--seed", "2012", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return out, done, json.loads(out.read_text())


def test_one_command_prints_every_metric_and_ends_with_no_claim(report):
    out, done, full = report
    assert full["correct"] is True and full["claim"] is None
    assert done.stdout.rstrip().endswith('"claim": null}')
    assert set(full["host"]) == {"cpus", "python", "platform"}
    for name in WORKLOADS:
        entry = full["workloads"][name]
        for section, passed in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            wanted = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
            got = {metric: value["unit"] for metric, value in entry[passed]["metrics"].items()}
            assert got == wanted, (name, section)
            assert entry[passed]["failed"] == 0 and entry[passed]["attempted"] > 0
        for metric in wanted:
            assert f"  {metric} " in done.stdout
        trace = json.loads(out.with_name(f"BENCH_e2e_trace_{name}.json").read_text())
        assert trace["columns"][:4] == ["name", "start_s", "end_s", "parent"]
        assert any(span[0] == "server.execute" for span in trace["spans"])
    assert no_stray_server()


def test_pinned_digests_match_seed_2012(report):
    _, _, full = report
    pinned = json.loads((ROOT / "benchmarks" / "e2e" / "digests.json").read_text())["2012"]
    assert {name: full["workloads"][name]["digest"] for name in WORKLOADS} == pinned


def test_driver_form_and_same_seed_same_inputs(tmp_path):
    digests = []
    for attempt in range(2):
        out = tmp_path / f"BENCH_{attempt}.json"
        done = run("--quick", "--workload", "decide_hot", "--seed", "77", "--trace", "0",
                   "--out", str(out))
        assert done.returncode == 0, done.stderr[-3000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
        digests.append(json.loads(out.read_text())["workloads"]["decide_hot"]["digest"])
    assert digests[0] == digests[1]


def test_oracle_catches_a_planted_fault():
    """One wrong expected decision and one mistyped ingest record."""
    done = run("--quick", "--workload", "mixed_churn", "--seed", "2012", "--trace", "0",
               "--inject-fault")
    assert done.returncode != 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 2
    assert no_stray_server()


def test_compare_marks_ok_worse_and_failures(report, tmp_path):
    out, _, full = report
    compare = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "compare.py")]
    same = subprocess.run([*compare, str(out), str(out)], capture_output=True, text=True)
    assert same.returncode == 0 and " worse" not in same.stdout.split("\n\n")[0]

    slower = json.loads(json.dumps(full))
    entry = slower["workloads"]["decide_hot"]["end_to_end"]["metrics"]["server_cpu_us_per_op"]
    entry["value"] *= 2
    entry["windows"] = [2 * window for window in entry["windows"]]
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slower))
    done = subprocess.run([*compare, str(out), str(worse)], capture_output=True, text=True)
    assert done.returncode == 1
    assert any(line.startswith("decide_hot") and "server_cpu_us_per_op" in line
               and line.endswith("worse") for line in done.stdout.splitlines())

    failing = json.loads(json.dumps(full))
    failing["workloads"]["grant_full"]["end_to_end"]["failed"] = 3
    failed = tmp_path / "failed.json"
    failed.write_text(json.dumps(failing))
    done = subprocess.run([*compare, str(out), str(failed)], capture_output=True, text=True)
    assert done.returncode == 1


def test_refuses_a_checkout_without_the_program(tmp_path):
    """Only ``BENCHMARK.json`` and ``benchmarks/e2e``: nothing to measure."""
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for source in (ROOT / "benchmarks" / "e2e").iterdir():
        if source.is_file():
            (bare / "benchmarks" / "e2e" / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "decide_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
