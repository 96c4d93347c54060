"""The scatter path: cached, single-flight merges of shard-spanning requests.

**Scatter caching and single-flight.**  The scatter path keeps its own
:class:`~repro.xacml.pdp.DecisionCache` — an LRU keyed by the full
request fingerprint, linked by the candidate policy ids that produced
each decision and by the identity literals its request carries, and
invalidated through the
:class:`~repro.xacml.sharding.store.InvalidationBus` by the one rule of
:meth:`~repro.xacml.pdp.DecisionCache.on_store_event`
(``removed``/``updated`` evict the policy's bucket, ``loaded``/``updated``
the entries the new target can reach; only a target unconstrained in
every indexed category flushes wholesale — exactly the per-store
discipline).  Concurrent identical scatter requests are
de-duplicated *single-flight*: one thread gathers and merges, the rest
wait on the published result.  Coherence under concurrency comes from a
version stamp: every bus event bumps a version, a merge records the
version it started under, and a merge that an event overlapped is
returned to its own (concurrent) caller but never cached and never
handed to waiters — a waiter that joined after the mutation retries
against the post-mutation store, so a completed mutation is never
masked by an in-flight merge.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import ShardUnavailableError
from repro.xacml.pdp import DecisionCache, decide
from repro.xacml.request import Request
from repro.xacml.response import Response
from repro.xacml.sharding.store import ShardedPolicyStore


class _ScatterCall:
    """One in-flight scatter merge, shared by its leader and waiters."""

    __slots__ = ("done", "version", "response", "stale")

    def __init__(self, version: int):
        self.done = threading.Event()
        #: Invalidation version the merge started under.
        self.version = version
        self.response: Optional[Response] = None
        #: True until the leader publishes a merge no event overlapped.
        self.stale = True


class ScatterEvaluator:
    """Cached, single-flight evaluation of shard-spanning requests.

    See the module docstring for the coherence argument.  A
    zero-capacity cache stores nothing — every sequential request
    re-gathers and re-merges — while concurrent identical requests
    still coalesce single-flight.
    """

    #: Seconds a waiter waits for a leader's merge before it gives up
    #: with a retryable :class:`ShardUnavailableError`.
    WAIT_TIMEOUT = 120.0

    def __init__(self, store: ShardedPolicyStore, combining: str, cache_size: int):
        self.store = store
        self.combining = combining
        self.cache = DecisionCache(cache_size)
        self._lock = threading.Lock()
        self._inflight: Dict[tuple, _ScatterCall] = {}  # guarded by: self._lock
        #: Bumped on every bus event; stamps in-flight merges.
        self._version = 0  # guarded by: self._lock
        #: Gather+merge evaluations actually performed.
        self.merges = 0  # guarded by: self._lock
        #: Waiters served by a concurrent leader's merge.
        self.coalesced = 0  # guarded by: self._lock
        #: Waiters that re-evaluated because an invalidation overlapped.
        self.retries = 0  # guarded by: self._lock
        #: Waiters that gave up on a leader after :attr:`WAIT_TIMEOUT`.
        self.timeouts = 0  # guarded by: self._lock
        store.bus.add_listener(self._on_bus_event)

    def _on_bus_event(self, event: str, policy) -> None:
        with self._lock:
            self._version += 1
            self.cache.on_store_event(event, policy)

    def set_combining(self, combining: str) -> None:
        with self._lock:
            self.combining = combining
            self._version += 1
            self.cache.flush()

    def detach(self) -> None:
        """Unsubscribe from the bus and drop every cached decision."""
        self.store.bus.remove_listener(self._on_bus_event)
        with self._lock:
            self.cache.clear()

    def flush(self) -> None:
        """Cold-start the scatter cache (counted as a full flush)."""
        with self._lock:
            self.cache.flush()

    def evaluate(self, request: Request) -> Response:
        key = request.fingerprint()
        while True:
            with self._lock:
                response = self.cache.get(key)
                if response is not None:
                    return response
                call = self._inflight.get(key)
                if call is None:
                    call = _ScatterCall(self._version)
                    self._inflight[key] = call
                    break  # this thread leads the merge
                self.coalesced += 1
            if not call.done.wait(self.WAIT_TIMEOUT):
                with self._lock:
                    self.timeouts += 1
                raise ShardUnavailableError("scatter", f"no merge in {self.WAIT_TIMEOUT} s")
            if not call.stale:
                return call.response
            # An invalidation (or a leader failure) overlapped the merge:
            # this waiter may postdate the mutation, so it must re-read.
            with self._lock:
                self.retries += 1
        try:
            candidates = self.store.policies_for(request)
            response = decide(candidates, request, self.combining)
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            call.done.set()  # waiters observe stale=True and retry
            raise
        with self._lock:
            self.merges += 1
            call.response = response
            call.stale = call.version != self._version
            if not call.stale:
                self.cache.put(
                    key, response, frozenset(p.policy_id for p in candidates)
                )
            self._inflight.pop(key, None)
        call.done.set()
        return response

    def stats(self) -> dict:
        """A fresh snapshot: cache counters plus single-flight counters."""
        with self._lock:
            snapshot = self.cache.stats()
            snapshot["merges"] = self.merges
            snapshot["coalesced"] = self.coalesced
            snapshot["retries"] = self.retries
            snapshot["timeouts"] = self.timeouts
            return snapshot
