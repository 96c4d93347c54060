"""Shared fixtures and helpers for the evaluation benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper's
Section 4.2 (or an ablation of a design choice DESIGN.md calls out).
Latency figures are *virtual-clock* seconds from the calibrated network
simulation — the real computation (PDP, merging, NR/PR, SQL generation,
engine registration) is executed and measured for real, wire time is
sampled (see DESIGN.md's substitution table).

Conventions: heavy end-to-end replays use ``benchmark.pedantic(...,
rounds=1)`` — the workload itself is the unit of measurement; micro
benchmarks (NR/PR checks, merging, engine throughput) use the default
calibration so pytest-benchmark reports stable per-operation times.
"""

from __future__ import annotations

import math

import pytest

from repro.workload.generator import TABLE3, WorkloadGenerator
from repro.workload.runner import ExperimentRunner


def make_runner(seed=2012, n_requests=TABLE3.n_requests,
                n_policies=TABLE3.n_policies, **runner_kwargs):
    """A fresh generator+runner pair at the requested workload scale."""
    generator = WorkloadGenerator(seed=seed)
    generator.parameters = generator.parameters._replace(
        n_requests=n_requests, n_policies=n_policies
    )
    runner = ExperimentRunner(seed=seed, generator=generator, **runner_kwargs)
    return runner, generator


@pytest.fixture(scope="session")
def table3_items():
    """The full Table 3 workload (1500 requests over 1000 policies)."""
    generator = WorkloadGenerator(seed=2012)
    return generator, generator.generate()


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def assert_outputs_equivalent(got, expected, drifting_fields):
    """Production and oracle outputs must agree: exactly, except to
    float tolerance for *drifting_fields* — the outputs where
    incremental eviction (running sums) legitimately drifts from the
    oracle's per-window recompute by a few ulps."""
    assert len(got) == len(expected)
    for got_tuple, expected_tuple in zip(got, expected):
        for name, g, e in zip(
            got_tuple.schema.attribute_names, got_tuple.values, expected_tuple.values
        ):
            if name in drifting_fields:
                assert math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-6), (name, g, e)
            else:
                assert g == e, (name, g, e)
