"""Workload generation and experiment harness (paper Section 4.2).

- :mod:`repro.workload.generator` — the Table 3 workload: query graphs
  drawn from the seven FB/MB/AB shape combinations, unique policies and
  matching requests with optional customised queries, and the equivalent
  StreamSQL scripts fed to the direct-query baseline;
- :mod:`repro.workload.zipf` — the Zipf-distributed request sequence
  (α = 0.223, maxRank = 300) of Figure 6(b);
- :mod:`repro.workload.runner` — deploys the full framework and replays
  the sequences, producing the traces behind Figures 6 and 7;
- :mod:`repro.workload.report` — renders the measured distributions as
  the tables and ASCII curves recorded in EXPERIMENTS.md.
"""

from repro.workload.generator import (
    SHAPE_COMPOSITION,
    TABLE3,
    WorkloadGenerator,
    WorkloadItem,
)
from repro.workload.zipf import zipf_ranks, zipf_sequence
from repro.workload.runner import ExperimentRunner
from repro.workload.report import (
    breakdown_table,
    improvement_histogram,
    summary_table,
)

__all__ = [
    "SHAPE_COMPOSITION",
    "TABLE3",
    "WorkloadGenerator",
    "WorkloadItem",
    "zipf_ranks",
    "zipf_sequence",
    "ExperimentRunner",
    "breakdown_table",
    "improvement_histogram",
    "summary_table",
]
