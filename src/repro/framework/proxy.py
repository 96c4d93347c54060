"""The proxy with a stream-handle cache.

"Unlike eXACML, what [is] cached in the proxy is not actual data, but
data stream handles, whose sizes are significantly smaller" (Section
4.2).  A cache entry maps a request fingerprint — subject, resource,
action and the byte-exact customised query — to the handle URI the
server previously returned.  A hit answers the client without touching
the server (or the DSMS) at all.

On a miss the proxy also charges the server's side of the request to
the virtual clock — its real compute and, on a grant, the sampled
server→DSMS submission delay (folded into the returned timing) — because
the data server itself simulates nothing.

The cache is LRU-bounded; entries are invalidated when the underlying
handle is withdrawn (revocation must not be masked by the proxy).  Two
mechanisms keep that guarantee:

- **revalidation** — every hit checks the handle is still live before
  answering (the seed behaviour, kept as the backstop);
- **proactive purge** — the proxy subscribes to the server's policy
  store (a single :class:`~repro.xacml.store.PolicyStore` or the
  invalidation bus of a :class:`~repro.xacml.sharding.ShardedPolicyStore`
  — both present the same listener contract) and drops every entry whose
  handle died when a policy is removed or updated, so revoked handles do
  not linger in the cache occupying LRU slots until their next lookup.

Store listeners run in subscription order and the graph manager
subscribes at instance construction, so by the time the proxy observes
an event the spawned graphs are already withdrawn.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import NamedTuple, Optional

from repro.framework.messages import StreamRequestMessage, StreamResponseMessage
from repro.framework.network import SimulatedNetwork
from repro.framework.server import DataServer, ServerTiming


class ProxyResult(NamedTuple):
    """Proxy-side outcome: response + timing breakdown components."""

    response: StreamResponseMessage
    timing: ServerTiming
    network_seconds: float   # proxy↔server legs (zero on a cache hit)
    cache_hit: bool


class Proxy:
    """Caches handle responses between clients and the data server."""

    def __init__(
        self,
        server: DataServer,
        network: SimulatedNetwork,
        cache_enabled: bool = True,
        cache_capacity: int = 1024,
    ):
        self.server = server
        self.network = network
        self.cache_enabled = cache_enabled
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[str, StreamResponseMessage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Entries dropped by policy-event purges (vs lazy revalidation).
        self.proactive_invalidations = 0
        # A cache-less proxy has nothing to purge, so it doesn't pin
        # itself to the store's listener list (mirroring the cache-less
        # PDP's behaviour).
        if cache_enabled:
            self.server.instance.store.add_listener(self._on_policy_event)

    def process(self, message: StreamRequestMessage) -> ProxyResult:
        """Serve one client request, consulting the cache first."""
        key = message.cache_key()
        probe_compute = 0.0
        if self.cache_enabled:
            cached = self._lookup(key)
            if cached is not None:
                started = time.perf_counter()
                # The handle must still be live; a withdrawn query must
                # not be served from cache (revocation correctness).
                live = self._handle_live(cached)
                probe_compute = time.perf_counter() - started
                self.network.clock.advance(probe_compute)
                if live:
                    self.hits += 1
                    timing = ServerTiming(0.0, probe_compute, 0.0, probe_compute)
                    return ProxyResult(cached, timing, 0.0, True)
                self._cache.pop(key, None)
        self.misses += 1
        outbound = self.network.transfer("proxy-server", message.payload_bytes())
        response, timing = self.server.process(message)
        # Charged here, not in the server, and between the two legs: the
        # seeded draw order is outbound → submit → inbound.
        self.network.clock.advance(timing.compute_total)
        if response.ok:
            submit = self.network.dsms_submit(
                self.server.name, script_bytes=timing.script_bytes
            )
            timing = timing._replace(
                dsms_submit=timing.dsms_submit + submit,
                compute_total=timing.compute_total + submit,
            )
        inbound = self.network.transfer("proxy-server", response.payload_bytes())
        if self.cache_enabled and response.ok:
            self._store(key, response)
        if probe_compute:
            # Dead-handle fall-through: the cache probe was charged to
            # the clock exactly once above, so it must appear exactly
            # once in the returned breakdown too — folded into the
            # compute legs, not left to be mis-read as network time
            # when callers reconstruct shares from ``total - compute``.
            timing = timing._replace(
                query_graph=timing.query_graph + probe_compute,
                compute_total=timing.compute_total + probe_compute,
            )
        return ProxyResult(response, timing, outbound + inbound, False)

    def invalidate(self) -> None:
        """Drop every cache entry."""
        self._cache.clear()

    def detach(self) -> None:
        """Unsubscribe from the server's policy store events.

        Call when discarding a transient proxy over a long-lived server,
        so the store's listener list doesn't keep the proxy (and its
        handle cache) alive and swept on every policy event — the same
        lifecycle contract as ``PolicyDecisionPoint.detach``.
        """
        self.server.instance.store.remove_listener(self._on_policy_event)

    def _on_policy_event(self, event: str, policy) -> None:
        """Purge entries whose handle a policy removal/update revoked.

        Runs after the graph manager's revocation listener (subscription
        order), so a dead handle is observable here the moment the event
        fires.  Purging only what actually died keeps unrelated hot
        entries warm; output-wise this is identical to lazy revalidation
        (a purged entry would have failed its next liveness check), it
        just stops revoked handles from squatting in LRU slots.
        """
        if event not in ("removed", "updated") or not self._cache:
            return
        dead = [
            key
            for key, response in self._cache.items()
            if not self._handle_live(response)
        ]
        for key in dead:
            self._cache.pop(key, None)
            self.proactive_invalidations += 1

    # -- internals ---------------------------------------------------------------

    def _lookup(self, key: str) -> Optional[StreamResponseMessage]:
        response = self._cache.get(key)
        if response is not None:
            self._cache.move_to_end(key)
        return response

    def _store(self, key: str, response: StreamResponseMessage) -> None:
        self._cache[key] = response
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    def _handle_live(self, response: StreamResponseMessage) -> bool:
        from repro.errors import UnknownHandleError

        try:
            self.server.instance.engine.lookup(response.handle_uri)
        except UnknownHandleError:
            return False
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
