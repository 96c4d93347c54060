"""Command-line front end: ``python -m repro <command>``.

Runs the paper's experiments (at full or reduced scale) and the security
demo without writing any code:

- ``python -m repro fig6a``            — unique-sequence CDF (Figure 6(a))
- ``python -m repro fig6b``            — Zipf + cache CDF (Figure 6(b))
- ``python -m repro fig7 --requests 100 --policies 50`` — breakdown (Figure 7)
- ``python -m repro policy-load``      — policy-loading statistics
- ``python -m repro attack``           — the Section 3.4 reconstruction attack
- ``python -m repro version``
"""

from __future__ import annotations

import argparse
import sys

from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import ExperimentRunner
from repro.workload.report import (
    breakdown_summary,
    breakdown_table,
    improvement_histogram,
    policy_load_summary,
    summary_table,
)


def _make_runner(args, **kwargs):
    generator = WorkloadGenerator(seed=args.seed)
    generator.parameters = generator.parameters._replace(
        n_requests=args.requests, n_policies=args.policies
    )
    runner = ExperimentRunner(seed=args.seed, generator=generator, **kwargs)
    items = generator.generate()
    return runner, items


def cmd_fig6a(args) -> int:
    runner, items = _make_runner(args)
    runner.load_policies(items)
    runner.run_direct(items)
    traces = runner.run_unique(items)
    print(runner.metrics.ascii_cdf(["direct", "exacml+"]))
    print()
    print(summary_table(runner.metrics, ["direct", "exacml+"]))
    stats = breakdown_summary(traces)
    print(f"\nnetwork share: {stats['network_share']:.2f}   "
          f"sub-second: {stats['sub_second_fraction']:.3f}")
    return 0


def cmd_fig6b(args) -> int:
    # Table 3's maxRank is 300; scale it down proportionally when the
    # experiment runs at reduced size (maxRank must not exceed the pool).
    max_rank = min(300, max(1, args.requests // 5))

    runner_off, items_off = _make_runner(args, cache_enabled=False)
    runner_off.load_policies(items_off)
    runner_off.run_direct(items_off)
    off = runner_off.run_zipf(
        items_off, max_rank=max_rank, system_label="exacml+ cache off"
    )

    runner_on, items_on = _make_runner(args, cache_enabled=True)
    runner_on.load_policies(items_on)
    on = runner_on.run_zipf(
        items_on, max_rank=max_rank, system_label="exacml+ cache on"
    )

    runner_off.metrics.extend(on)
    print(runner_off.metrics.ascii_cdf(
        ["direct", "exacml+ cache off", "exacml+ cache on"]
    ))
    histogram = improvement_histogram(on, off)
    print(f"\nhit rate: {runner_on.proxy.hit_rate:.2f}   "
          f">100% improvement: {histogram['fraction_over_100pct']:.2f}")
    return 0


def cmd_fig7(args) -> int:
    runner, items = _make_runner(args)
    runner.load_policies(items)
    traces = runner.run_unique(items)
    print(breakdown_table(traces, sample_every=max(1, len(traces) // 15)))
    stats = breakdown_summary(traces)
    print(f"\nPDP mean: {stats['pdp'].mean * 1000:.2f} ms   "
          f"graph mean: {stats['query_graph'].mean * 1000:.2f} ms   "
          f"submit share: {stats['submit_share']:.2f}")
    return 0


def cmd_policy_load(args) -> int:
    runner, items = _make_runner(args)
    load_times = runner.load_policies(items)
    mean, stdev = policy_load_summary(load_times)
    print(f"loaded {len(load_times)} policies: "
          f"mean {mean:.3f} s, stdev {stdev:.3f} s (paper: 0.25 ± 0.06)")
    return 0


def cmd_attack(args) -> int:
    from repro.core.attack import MultiWindowAttack
    from repro.errors import ConcurrentAccessError

    victim = MultiWindowAttack.build_victim_instance(enforce_single_access=False)
    recovered = MultiWindowAttack(victim).run(list(range(args.tuples)))
    exact = sum(1 for i, v in recovered.items() if v == i)
    print(f"unguarded: recovered {exact}/{len(recovered)} tuples exactly "
          f"(from a3 onward)")
    guarded = MultiWindowAttack.build_victim_instance(enforce_single_access=True)
    try:
        MultiWindowAttack(guarded).run(list(range(args.tuples)))
        print("guarded: ATTACK SUCCEEDED (this is a bug)")
        return 1
    except ConcurrentAccessError:
        print("guarded: second concurrent window rejected — attack blocked")
    return 0


def cmd_version(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — eXACML+ reproduction")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the eXACML+ reproduction experiments.",
    )
    parser.add_argument("--seed", type=int, default=2012)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, requests=1500, policies=1000):
        sub = subparsers.add_parser(name)
        sub.add_argument("--requests", type=int, default=requests)
        sub.add_argument("--policies", type=int, default=policies)
        sub.set_defaults(handler=handler)
        return sub

    add("fig6a", cmd_fig6a)
    add("fig6b", cmd_fig6b)
    add("fig7", cmd_fig7, requests=100, policies=50)
    add("policy-load", cmd_policy_load)
    attack = subparsers.add_parser("attack")
    attack.add_argument("--tuples", type=int, default=100)
    attack.set_defaults(handler=cmd_attack)
    version = subparsers.add_parser("version")
    version.set_defaults(handler=cmd_version)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
