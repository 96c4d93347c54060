"""The experiment runner: deploys the framework and replays workloads.

One :class:`ExperimentRunner` reproduces the paper's deployment —
data server + StreamBase stand-in on the "server room" machines, proxy,
client — over the simulated network, then replays request sequences.
The data server simulates nothing: the proxy charges its compute and
the DSMS submission, the runner the paper's per-policy load cost.

- :meth:`run_direct` — the direct-query baseline (Figure 6);
- :meth:`run_unique` — the unique query/request sequence (Figures 6(a),
  7(a) and 7(b));
- :meth:`run_zipf` — the Zipf-distributed sequence with the proxy cache
  on or off (Figure 6(b));
- :meth:`load_policies` — the policy-loading measurement (Section 4.2).

Performance runs disable the Section 3.4 single-access constraint — the
paper's throughput workload re-requests streams for the same credentials,
which the constraint would reject; the constraint is evaluated separately
(tests and the attack benchmark).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.framework.client import ClientInterface
from repro.framework.direct import DirectQuerySystem
from repro.framework.metrics import MetricsCollector, RequestTrace
from repro.framework.network import LatencyModel, SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.framework.server import DataServer
from repro.streams.engine import StreamEngine
from repro.workload.generator import TABLE3, WorkloadGenerator, WorkloadItem
from repro.workload.zipf import zipf_sequence


class ExperimentRunner:
    """Owns the deployed entities and the metrics collector."""

    def __init__(
        self,
        seed: int = 2012,
        generator: Optional[WorkloadGenerator] = None,
        cache_enabled: bool = True,
        cache_capacity: int = 120,
    ):
        self.generator = generator or WorkloadGenerator(seed=seed)
        self.network = SimulatedNetwork(LatencyModel(seed=seed))
        self.engine = StreamEngine()
        for name, schema in self.generator.streams.items():
            self.engine.register_input_stream(name, schema)
        self.server = DataServer(
            self.network,
            engine=self.engine,
            enforce_single_access=False,   # perf workload re-requests streams
            allow_partial_results=True,    # workload PRs are recorded, not fatal
        )
        self.proxy = Proxy(
            self.server,
            self.network,
            cache_enabled=cache_enabled,
            cache_capacity=cache_capacity,
        )
        self.metrics = MetricsCollector()
        self.client = ClientInterface(self.proxy, self.network, self.metrics)
        self.direct = DirectQuerySystem(self.engine, self.network, self.metrics)
        #: Per-policy load times of the last :meth:`load_policies` call.
        self.policy_load_times: List[float] = []

    # -- setup phases ---------------------------------------------------------------

    def load_policies(self, items: Sequence[WorkloadItem]) -> List[float]:
        """Load every unique policy; returns the per-policy load times."""
        self.policy_load_times = []
        for policy in self.generator.unique_policies(items):
            self.server.load_policy(policy)
            # Charged after success: a refused load costs no RNG draw.
            self.policy_load_times.append(self.network.policy_load())
        return self.policy_load_times

    # -- request sequences --------------------------------------------------------------

    def run_direct(self, items: Sequence[WorkloadItem]) -> List[RequestTrace]:
        """Replay the StreamSQL scripts through the direct-query system."""
        traces = []
        for item in items:
            _, trace = self.direct.submit(item.direct_sql)
            traces.append(trace)
        return traces

    def run_unique(
        self,
        items: Sequence[WorkloadItem],
        system_label: str = "exacml+",
    ) -> List[RequestTrace]:
        """Replay each request exactly once through eXACML+.

        The unique sequence of Figures 6(a) and 7 measures the
        access-control path itself, so the proxy cache is bypassed for
        the duration of the run (caching is the subject of Figure 6(b)).
        """
        self.client.system_label = system_label
        cache_was_enabled = self.proxy.cache_enabled
        self.proxy.cache_enabled = False
        try:
            traces = []
            for item in items:
                _, trace = self.client.request_stream(item.request, item.user_query)
                traces.append(trace)
        finally:
            self.proxy.cache_enabled = cache_was_enabled
        return traces

    def run_zipf(
        self,
        items: Sequence[WorkloadItem],
        length: Optional[int] = None,
        alpha: float = TABLE3.zipf_alpha,
        max_rank: int = TABLE3.zipf_max_rank,
        seed: int = 42,
        system_label: str = "exacml+cache",
    ) -> List[RequestTrace]:
        """Replay a Zipf-distributed sequence drawn from *items*."""
        self.client.system_label = system_label
        sequence = zipf_sequence(
            items, length or len(items), alpha=alpha, max_rank=max_rank, seed=seed
        )
        traces = []
        for item in sequence:
            _, trace = self.client.request_stream(item.request, item.user_query)
            traces.append(trace)
        return traces

    # -- convenience -----------------------------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for trace in self.metrics.traces:
            counts[trace.outcome] = counts.get(trace.outcome, 0) + 1
        return counts
