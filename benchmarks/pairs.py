"""Alternating base/change pairs of the end-to-end benchmark, and their verdict.

    python benchmarks/pairs.py --base HEAD~1 --change HEAD --workload grant_full \\
        --pairs 10 --seed 4242 --seconds 20

clones each side fresh under a scratch directory (``--base`` names a
revision of this repository; ``--change`` names one too, or the path of
another checkout, whose committed HEAD is cloned), runs
``benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
unchanged from each clone, once per side per pair, alternating the side
that goes first, and prints each pair as it ends.  Then it prints one
row per metric in dbworkload's run-table shape: each side's median and
interquartile range over its runs, the ratio of the medians (change /
base), the pairs in which the change read better, and the verdict:

``claim``  the change read better in at least 9 of every 10 pairs, and
           its median beats the base's by more than the base's IQR;
``worse``  its median is worse than the base's by more than the bound
           ``BENCHMARK.json`` gives the metric;
``-``      neither.

``--change`` equal to ``--base`` is the A/A mode: two clones of one
revision, whose ratios and spreads are the session's noise floor.
Exits 1 if any run was not ``correct`` or the change failed more ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
#: Share of the pairs the change must read better in for a claim.
CLAIM_SHARE = 0.9


def order(pair: int) -> Tuple[str, str]:
    """The sides of pair *pair* (0-based) in run order: base first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``,
    as ``benchmarks/e2e/compare.py`` reads a report's windows)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle
    first, _, third = statistics.quantiles(values, n=4)
    return first, middle, third


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float] = None) -> Dict[str, object]:
    """One metric over paired runs: ``base[i]`` and ``change[i]`` are pair *i*."""
    sign = 1.0 if better == "higher" else -1.0
    b_first, b_median, b_third = quartiles(base)
    c_first, c_median, c_third = quartiles(change)
    ahead = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gain = sign * (c_median - b_median)
    if ahead >= CLAIM_SHARE * len(base) and gain > b_third - b_first:
        mark = "claim"
    elif bound is not None and -gain > bound * abs(b_median):
        mark = "worse"
    else:
        mark = "-"
    return {"base": b_median, "base_iqr": b_third - b_first,
            "change": c_median, "change_iqr": c_third - c_first,
            "ratio": c_median / b_median if b_median else float("nan"),
            "ahead": ahead, "pairs": len(base), "verdict": mark}


def summarize(pairs: Sequence[Dict[str, Dict]], benchmark: Dict) -> List[Dict[str, object]]:
    """A row per metric every run reports and ``BENCHMARK.json`` directs."""
    directions = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    names = [name for name in directions
             if all(name in pair[side]["metrics"] for pair in pairs for side in SIDES)]
    rows = []
    for name in names:
        metric = directions[name]
        row = verdict([pair["base"]["metrics"][name]["value"] for pair in pairs],
                      [pair["change"]["metrics"][name]["value"] for pair in pairs],
                      metric["better"], metric.get("bound"))
        rows.append(dict(row, metric=name, unit=metric["unit"]))
    return rows


def table(rows: Sequence[Dict[str, object]]) -> str:
    """dbworkload's run-table shape: right-aligned columns under a rule."""
    header = ("metric", "unit", "base p50", "base IQR", "change p50", "change IQR",
              "ratio", "ahead", "verdict")
    cells = [header] + [(
        row["metric"], row["unit"], f"{row['base']:,.3f}", f"{row['base_iqr']:,.3f}",
        f"{row['change']:,.3f}", f"{row['change_iqr']:,.3f}", f"{row['ratio']:.3f}",
        f"{row['ahead']}/{row['pairs']}", row["verdict"]) for row in rows]
    widths = [max(len(line[column]) for line in cells) for column in range(len(header))]
    lines = ["  ".join(cell.rjust(width) for cell, width in zip(line, widths)) for line in cells]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def run_pairs(count: int, run: Callable[[str], Dict],
              report: Callable[[str], None] = print) -> List[Dict[str, Dict]]:
    """*count* pairs of ``run(side)`` results, alternating the first side."""
    pairs = []
    for pair in range(count):
        first = order(pair)
        results = {side: run(side) for side in first}
        pairs.append(results)
        ratios = "  ".join(
            f"{name} {results['base']['metrics'][name]['value']:,.2f} -> "
            f"{results['change']['metrics'][name]['value']:,.2f}"
            for name in ("throughput_rps", "server_cpu_us_per_op")
            if all(name in results[side]["metrics"] for side in SIDES))
        report(f"pair {pair + 1}/{count}  {first[0]} first  {ratios}  failed "
               f"{results['base']['failed']}/{results['change']['failed']}  correct "
               f"{results['base']['correct']}/{results['change']['correct']}")
    return pairs


def clone(source: str, revision: Optional[str], into: Path) -> Path:
    """A fresh clone of *source* at *revision* (``None``: its HEAD)."""
    subprocess.run(["git", "clone", "--quiet", source, str(into)], check=True)
    if revision is not None:
        subprocess.run(["git", "-C", str(into), "checkout", "--quiet", revision], check=True)
    return into


def resolve(repo: Path, spec: str) -> Tuple[str, Optional[str]]:
    """``(clone source, revision)`` of a ``--base`` / ``--change`` value."""
    if Path(spec).is_dir():
        return spec, None
    sha = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{spec}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    return str(repo), sha


def runner(checkouts: Dict[str, Path], argv: Sequence[str]) -> Callable[[str], Dict]:
    """``run(side)``: one ``benchmarks/e2e/run.py`` lifetime in that side's
    clone; its last stdout line is the result."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    def run(side: str) -> Dict:
        done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", *argv],
                              cwd=checkouts[side], env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"{side}: run.py printed no result (exit {done.returncode}):\n"
                               f"{done.stderr[-2000:]}") from None
    return run


def main(argv=None, run: Optional[Callable[[str], Dict]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="a revision of --repo")
    parser.add_argument("--change", required=True,
                        help="a revision of --repo, or a checkout whose HEAD is cloned")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repo", default=str(ROOT), help="default: this repository")
    parser.add_argument("--scratch", help="where the clones go (default: a temporary directory)")
    parser.add_argument("--out", help="write every pair's two results here (JSON)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=args.scratch, prefix="pairs-") as scratch:
        if run is None:
            checkouts = {side: clone(*resolve(Path(args.repo), getattr(args, side)),
                                     Path(scratch) / side) for side in SIDES}
            run = runner(checkouts, ["--workload", args.workload, "--seed", str(args.seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if args.change == args.base:
            print(f"A/A: both sides are {args.base}; every gap below is noise")
        pairs = run_pairs(args.pairs, run)
    if args.out:
        Path(args.out).write_text(json.dumps(pairs, indent=1) + "\n")
    print()
    print(table(summarize(pairs, benchmark)))
    runs = [pair[side] for pair in pairs for side in SIDES]
    failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES}
    correct = sum(bool(result["correct"]) for result in runs)
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, --trace {args.trace}: "
          f"{correct}/{len(runs)} runs correct; failed ops base {failed['base']}, "
          f"change {failed['change']}")
    return 0 if correct == len(runs) and failed["change"] <= failed["base"] else 1


if __name__ == "__main__":
    sys.exit(main())
