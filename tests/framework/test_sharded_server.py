"""End-to-end coverage of the sharded XACML+ deployment (PR 4).

The framework layer must behave identically whether the data server
hosts a single-store PDP or the sharded pair: same handles out, same
cache behaviour at the proxy, and — the part sharding makes
non-trivial — the same end-to-end revocation guarantees, now flowing
through the invalidation bus (graph withdrawal first, proxy handle
purge after, one logical event per mutation regardless of how many
shards replicate the policy).
"""

import pytest

from repro.core import stream_policy
from repro.framework.messages import StreamRequestMessage
from repro.framework.network import SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.framework.server import DataServer
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.sharding import ShardedPDP, ShardedPolicyStore

SHARD_MODES = (None, 4)


def weather_graph(threshold=5):
    return QueryGraph("weather").append(FilterOperator(f"rainrate > {threshold}"))


def deploy(pdp_shards, subjects=("LTA",)):
    network = SimulatedNetwork()
    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    server = DataServer(
        network,
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
        pdp_shards=pdp_shards,
    )
    for subject in subjects:
        server.load_policy(
            stream_policy(f"p:{subject}", "weather", weather_graph(), subject=subject)
        )
    return server, Proxy(server, network)


def request_for(subject):
    return StreamRequestMessage(Request.simple(subject, "weather"), None)


class TestShardedDeployment:
    def test_sharded_instance_uses_sharded_pair(self):
        server, _ = deploy(pdp_shards=4)
        assert isinstance(server.instance.store, ShardedPolicyStore)
        assert isinstance(server.instance.pdp, ShardedPDP)
        assert server.instance.pdp.n_shards == 4

    @pytest.mark.parametrize("pdp_shards", SHARD_MODES)
    def test_grant_hit_and_revocation_parity(self, pdp_shards):
        server, proxy = deploy(pdp_shards)
        first = proxy.process(request_for("LTA"))
        assert first.response.ok
        assert proxy.process(request_for("LTA")).cache_hit
        server.remove_policy("p:LTA")
        denied = proxy.process(request_for("LTA"))
        assert not denied.cache_hit
        assert not denied.response.ok and denied.response.error_kind == "denied"
        assert server.instance.engine.active_queries() == []

    @pytest.mark.parametrize("pdp_shards", SHARD_MODES)
    def test_update_revokes_and_redecides(self, pdp_shards):
        server, proxy = deploy(pdp_shards)
        first = proxy.process(request_for("LTA"))
        assert first.response.ok
        server.update_policy(
            stream_policy("p:LTA", "weather", weather_graph(9), subject="NEA")
        )
        denied = proxy.process(request_for("LTA"))
        assert not denied.response.ok and denied.response.error_kind == "denied"
        granted = proxy.process(request_for("NEA"))
        assert granted.response.ok
        assert granted.response.handle_uri != first.response.handle_uri

    @pytest.mark.parametrize("pdp_shards", SHARD_MODES)
    def test_proxy_purges_dead_handles_proactively(self, pdp_shards):
        server, proxy = deploy(pdp_shards, subjects=("LTA", "NEA"))
        proxy.process(request_for("LTA"))
        proxy.process(request_for("NEA"))
        assert len(proxy._cache) == 2
        server.remove_policy("p:LTA")
        # The bus/store event purged LTA's dead entry immediately — no
        # lookup needed — while NEA's live entry stayed warm.
        assert len(proxy._cache) == 1
        assert proxy.proactive_invalidations == 1
        assert proxy.process(request_for("NEA")).cache_hit

    def test_one_bus_event_per_mutation_despite_replication(self):
        from repro.xacml.policy import Policy, Rule, Target
        from repro.xacml.response import Effect

        server, _ = deploy(pdp_shards=4)
        store = server.instance.store
        events = []
        store.add_listener(
            lambda event, policy: events.append((event, policy.policy_id))
        )
        # A subject-literal stream policy lives on exactly one shard...
        server.load_policy(
            stream_policy("p:ANY", "weather", weather_graph(), subject="ANY")
        )
        assert len(store.placement_of("p:ANY")) == 1
        # ...while a resource-only target (wildcard subject) replicates
        # to all four — yet both produce exactly one logical event.
        wildcard = Policy(
            "p:WILD",
            target=Target.for_ids(resource="weather"),
            rules=[Rule("p:WILD:r", Effect.PERMIT)],
        )
        server.load_policy(wildcard)
        assert store.placement_of("p:WILD") == frozenset(range(4))
        assert events == [("loaded", "p:ANY"), ("loaded", "p:WILD")]
        assert store.stats()["replicated"] == 1

    @pytest.mark.parametrize("pdp_shards", (0, -3))
    def test_non_positive_shard_counts_are_refused(self, pdp_shards):
        from repro.core import XacmlPlusInstance

        with pytest.raises(ValueError):
            XacmlPlusInstance(pdp_shards=pdp_shards)
        assert isinstance(XacmlPlusInstance(pdp_shards=1).pdp, PolicyDecisionPoint)

    def test_detached_proxy_stops_observing(self):
        server, proxy = deploy(pdp_shards=4, subjects=("LTA", "NEA"))
        proxy.process(request_for("LTA"))
        proxy.detach()
        server.remove_policy("p:LTA")
        # No proactive purge after detach; revalidation still protects.
        assert proxy.proactive_invalidations == 0
        result = proxy.process(request_for("LTA"))
        assert not result.cache_hit and not result.response.ok
