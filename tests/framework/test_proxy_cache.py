"""Proxy handle-cache unit tests and end-to-end revocation coverage.

Directly exercises the pieces the seed never tested: the proxy's
hit/miss counters, LRU capacity eviction, and the live-handle
revalidation path — plus the end-to-end guarantee that a withdrawn
handle is never served from the proxy cache and a stale decision is
never served from the PDP cache after a policy load/update/remove.
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
from repro.xacml.request import Request


def weather_graph(threshold=5):
    return QueryGraph("weather").append(FilterOperator(f"rainrate > {threshold}"))


def deploy(cache_capacity=1024, subjects=("LTA",)):
    network = SimulatedNetwork()
    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    server = DataServer(
        network,
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
    )
    for subject in subjects:
        server.load_policy(
            stream_policy(f"p:{subject}", "weather", weather_graph(), subject=subject)
        )
    proxy = Proxy(server, network, cache_capacity=cache_capacity)
    return server, proxy


def request_for(subject):
    return StreamRequestMessage(Request.simple(subject, "weather"), None)


class TestCounters:
    def test_miss_then_hit(self):
        server, proxy = deploy()
        first = proxy.process(request_for("LTA"))
        assert not first.cache_hit and first.response.ok
        second = proxy.process(request_for("LTA"))
        assert second.cache_hit
        assert second.response.handle_uri == first.response.handle_uri
        assert (proxy.hits, proxy.misses) == (1, 1)
        assert proxy.hit_rate == 0.5
        # The hit is answered from the proxy: no proxy↔server wire time,
        # and the server never saw the second request.
        assert second.network_seconds == 0.0
        assert server.requests_processed == 1

    def test_denied_responses_not_cached(self):
        server, proxy = deploy()
        result = proxy.process(request_for("intruder"))
        assert not result.response.ok
        again = proxy.process(request_for("intruder"))
        assert not again.cache_hit
        assert proxy.misses == 2

    def test_cache_disabled(self):
        network = SimulatedNetwork()
        engine = StreamEngine()
        engine.register_input_stream("weather", WEATHER_SCHEMA)
        server = DataServer(network, engine=engine, enforce_single_access=False,
                            allow_partial_results=True)
        server.load_policy(stream_policy("p:LTA", "weather", weather_graph(),
                                         subject="LTA"))
        proxy = Proxy(server, network, cache_enabled=False)
        proxy.process(request_for("LTA"))
        result = proxy.process(request_for("LTA"))
        assert not result.cache_hit
        assert (proxy.hits, proxy.misses) == (0, 2)


class TestLruEviction:
    def test_capacity_bound_evicts_least_recent(self):
        subjects = ("a", "b", "c")
        server, proxy = deploy(cache_capacity=2, subjects=subjects)
        for subject in subjects:      # c's insertion evicts a
            proxy.process(request_for(subject))
        assert len(proxy._cache) == 2
        result = proxy.process(request_for("a"))
        assert not result.cache_hit   # evicted → full round trip again
        assert proxy.misses == 4

    def test_hit_refreshes_recency(self):
        server, proxy = deploy(cache_capacity=2, subjects=("a", "b", "c"))
        proxy.process(request_for("a"))
        proxy.process(request_for("b"))
        proxy.process(request_for("a"))      # refresh a; b is now LRU
        proxy.process(request_for("c"))      # evicts b
        assert proxy.process(request_for("a")).cache_hit
        assert not proxy.process(request_for("b")).cache_hit

    def test_invalidate_clears_everything(self):
        server, proxy = deploy(subjects=("a", "b"))
        proxy.process(request_for("a"))
        proxy.process(request_for("b"))
        proxy.invalidate()
        assert not proxy.process(request_for("a")).cache_hit


class TestTimingAccounting:
    """The trace identity: virtual-clock time charged inside the proxy
    equals ``network_seconds + timing.compute_total`` — on misses, live
    hits, *and* the dead-handle fall-through, where the cache-probe leg
    used to be charged to the clock but dropped from the breakdown
    (mis-read as network time by anyone reconstructing shares)."""

    def charge(self, proxy, message):
        clock = proxy.network.clock
        before = clock.now()
        result = proxy.process(message)
        return clock.now() - before, result

    def assert_identity(self, elapsed, result):
        accounted = result.network_seconds + result.timing.compute_total
        assert elapsed == pytest.approx(accounted, rel=1e-12, abs=1e-12)

    def test_miss_and_live_hit_identities(self):
        server, proxy = deploy()
        elapsed, result = self.charge(proxy, request_for("LTA"))
        assert not result.cache_hit
        self.assert_identity(elapsed, result)
        elapsed, result = self.charge(proxy, request_for("LTA"))
        assert result.cache_hit
        assert result.network_seconds == 0.0
        self.assert_identity(elapsed, result)

    def test_dead_handle_fall_through_counts_probe_once(self):
        server, proxy = deploy()
        first = proxy.process(request_for("LTA"))
        server.instance.engine.withdraw(first.response.handle_uri)
        elapsed, result = self.charge(proxy, request_for("LTA"))
        # The probe found a dead handle and fell through to the server.
        assert not result.cache_hit and result.response.ok
        assert result.response.handle_uri != first.response.handle_uri
        # The probe leg appears exactly once, as compute (query_graph),
        # never as proxy↔server network time.
        self.assert_identity(elapsed, result)
        assert result.timing.query_graph > 0.0

    def test_probe_leg_not_charged_on_plain_miss(self):
        server, proxy = deploy(subjects=("LTA", "NEA"))
        proxy.process(request_for("LTA"))
        # A different key: the cache is probed-by-lookup only (no
        # liveness check, no clock charge) before the full round trip.
        elapsed, result = self.charge(proxy, request_for("NEA"))
        assert not result.cache_hit
        self.assert_identity(elapsed, result)


class TestRevalidation:
    def test_withdrawn_handle_not_served_from_cache(self):
        server, proxy = deploy()
        first = proxy.process(request_for("LTA"))
        # Revoke the live query behind the cached handle directly.
        server.instance.engine.withdraw(first.response.handle_uri)
        result = proxy.process(request_for("LTA"))
        assert not result.cache_hit
        assert result.response.ok
        assert result.response.handle_uri != first.response.handle_uri
        assert (proxy.hits, proxy.misses) == (0, 2)

    def test_policy_removal_revokes_through_proxy(self):
        """Remove the policy: the spawned graph is withdrawn, the decision
        cache flushed, and the next request is denied — the stale handle
        must never be served."""
        server, proxy = deploy()
        first = proxy.process(request_for("LTA"))
        assert first.response.ok
        server.remove_policy("p:LTA")
        result = proxy.process(request_for("LTA"))
        assert not result.cache_hit
        assert not result.response.ok
        assert result.response.error_kind == "denied"
        assert result.response.handle_uri is None
        # The engine really dropped the revoked query.
        assert server.instance.engine.active_queries() == []

    def test_policy_update_revokes_and_redecides(self):
        """Update the policy to a different subject: the old subject's
        cached permit (proxy handle + PDP decision) must both die."""
        server, proxy = deploy()
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

    def test_pdp_cache_flush_counted(self):
        server, proxy = deploy()
        pdp = server.instance.pdp
        proxy.process(request_for("LTA"))
        before = pdp.cache.invalidations
        server.remove_policy("p:LTA")
        assert pdp.cache.invalidations == before + 1
        assert pdp.cache_stats()["entries"] == 0
