"""Supervision pins for :class:`ProcessShardPool` (PR 7 tentpole).

The multidriver suite pins failure *containment*; this module pins the
*rebuild* semantics: state replay (snapshot + pinned sequences +
catch-up of mutations that landed while the worker was down), a lost
mirror taking its shard down before the mutation returns, the
sliding-window restart budget, and the health/stats surfaces.

A single-shard pool is used where placement is irrelevant — every
policy and request lands on shard 0, so "mutate while down" scenarios
need no placement arithmetic.
"""

import time

import pytest

from repro.errors import ShardUnavailableError
from repro.testing.faults import FaultInjector
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Decision, Effect
from repro.xacml.sharding import ProcessShardPool, ShardedPolicyStore

JOIN_TIMEOUT = 15.0


def policy(policy_id, resource, effect=Effect.PERMIT):
    return Policy(
        policy_id,
        target=Target.for_ids(resource=resource),
        rules=[Rule(f"{policy_id}:r", effect)],
    )


def wait_until(predicate, timeout=JOIN_TIMEOUT):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def wait_for_status(pool, shard_id, status, timeout=JOIN_TIMEOUT):
    return wait_until(
        lambda: pool.health()["statuses"][shard_id] == status, timeout
    )


def evaluate_with_retries(pool, request, timeout=JOIN_TIMEOUT):
    deadline = time.perf_counter() + timeout
    while True:
        try:
            return pool.evaluate(request)
        except ShardUnavailableError:
            if time.perf_counter() >= deadline:
                raise
            time.sleep(0.02)


class TestCatchUpReplay:
    def test_mutations_during_downtime_are_replayed_into_the_rebuild(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.5)
        store = ShardedPolicyStore(1)
        store.load(policy("p:a", "alpha"))
        request = Request.simple("u", "alpha")
        with ProcessShardPool(store, on_unavailable="error") as pool:
            assert pool.evaluate(request).decision is Decision.PERMIT
            pool.kill_worker(0)
            assert pool.health()["statuses"][0] == "down"
            # Mutations while the worker is down return promptly (they
            # queue for catch-up, never block on the dead shard)...
            store.update(policy("p:a", "alpha", effect=Effect.DENY))
            store.load(policy("p:b", "beta"))
            # ...and the rebuilt worker reflects every one of them: in
            # "error" mode a successful evaluation can only come from
            # the worker itself, so these decisions prove the replay.
            assert evaluate_with_retries(
                pool, request
            ).decision is Decision.DENY
            assert evaluate_with_retries(
                pool, Request.simple("u", "beta")
            ).policy_id == "p:b"
            assert pool.health()["worker_restarts"] == 1

    def test_catchup_backlog_is_visible_in_health(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 2.0)
        store = ShardedPolicyStore(1)
        store.load(policy("p:a", "alpha"))
        with ProcessShardPool(store, on_unavailable="error") as pool:
            pool.kill_worker(0)
            assert pool.health()["statuses"][0] == "down"
            store.load(policy("p:b", "beta"))
            store.load(policy("p:c", "gamma"))
            snapshot = pool.health()["shards"][0]
            assert snapshot["catchup_pending"] >= 2
            assert snapshot["last_error"] is not None
            # The backlog drains on readmission.
            assert wait_for_status(pool, 0, "up")
            assert pool.health()["shards"][0]["catchup_pending"] == 0

    def test_pinned_sequences_survive_the_rebuild(self, monkeypatch):
        # Policy precedence under first-applicable combining follows
        # global load order; the rebuild must restore it exactly, or a
        # respawned worker would decide ties differently than before
        # the crash.
        store = ShardedPolicyStore(1)
        store.load(policy("p:first", "alpha"))
        store.load(policy("p:second", "alpha"))
        request = Request.simple("u", "alpha")
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.01)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            assert pool.evaluate(request).policy_id == "p:first"
            pool.kill_worker(0)
            assert wait_until(
                lambda: pool.health()["worker_restarts"] >= 1
            )
            assert evaluate_with_retries(pool, request).policy_id == "p:first"


class DropRemoves(FaultInjector):
    """Drops the mirror of every ``remove``."""

    def on_mirror(self, pool, shard_id, op):
        return "drop" if op == "remove" else None


class SlowToNotice(ProcessShardPool):
    """A dispatcher that cannot notice a dead worker, nor a supervisor
    rebuild it, before the next evaluate: only the mirror path itself
    can take the shard out of service in time."""

    POLL_INTERVAL = 1.0
    RESTART_BACKOFF = 30.0


class TestLostMirrors:
    def test_a_dropped_revoke_returns_with_its_shard_down(self):
        """The dropped mirror of a ``remove`` used to only signal the
        worker: the shard still read ``up`` when the revoke returned, so
        the next evaluate could reach the replica that missed it."""
        store = ShardedPolicyStore(2)
        request = Request.simple("alice", "alpha")
        (shard,) = store.shards_for_request(request)
        store.load(Policy("p:alice", target=Target.for_ids(subject="alice"),
                          rules=[Rule("p:alice:r", Effect.PERMIT)]))
        with SlowToNotice(store, fault_injector=DropRemoves()) as pool:
            assert pool.evaluate(request).decision is Decision.PERMIT
            before = pool.health()["fallback_evaluations"]
            store.remove("p:alice")
            health = pool.health()
            assert health["statuses"][shard] == "down"
            assert pool.evaluate(request).decision is Decision.NOT_APPLICABLE
            assert pool.health()["fallback_evaluations"] == before + 1


class TestRestartBudget:
    def test_repeated_crashes_inside_the_window_degrade_the_shard(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "MAX_RESTARTS", 2)
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.01)
        store = ShardedPolicyStore(1)
        store.load(policy("p:a", "alpha"))
        with ProcessShardPool(store, on_unavailable="error") as pool:
            for expected_restarts in (1, 2):
                pool.kill_worker(0)
                assert wait_until(
                    lambda: pool.health()["worker_restarts"]
                    >= expected_restarts
                )
                assert wait_for_status(pool, 0, "up")
            # Third crash inside the window: budget exhausted.
            pool.kill_worker(0)
            assert wait_for_status(pool, 0, "degraded")
            assert pool.health()["worker_restarts"] == 2
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.evaluate(Request.simple("u", "alpha"))
            assert excinfo.value.degraded and not excinfo.value.retryable

    def test_window_expiry_refreshes_the_budget(self, monkeypatch):
        store = ShardedPolicyStore(1)
        store.load(policy("p:a", "alpha"))
        # A tiny window: each crash's budget slot expires long before
        # the next crash, so repeated kills never accumulate to
        # degradation.
        monkeypatch.setattr(ProcessShardPool, "MAX_RESTARTS", 1)
        monkeypatch.setattr(ProcessShardPool, "RESTART_WINDOW", 0.05)
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.1)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            for expected_restarts in (1, 2, 3):
                pool.kill_worker(0)
                assert wait_until(
                    lambda: pool.health()["worker_restarts"]
                    >= expected_restarts
                )
                assert wait_for_status(pool, 0, "up")
            assert pool.health()["degraded_shards"] == []


class TestHealthAndStats:
    def test_cache_stats_carry_robustness_counters(self):
        store = ShardedPolicyStore(2)
        store.load(policy("p:a", "alpha"))
        with ProcessShardPool(store) as pool:
            stats = pool.cache_stats()
            for key in (
                "worker_restarts",
                "fallback_evaluations",
                "unavailable_errors",
                "shards_unavailable",
            ):
                assert stats[key] == 0
            # While a shard is down its stats contribute zeros and the
            # snapshot says so.  (The supervisor may have already
            # restarted it by the time stats are read, so either count
            # is legitimate.)
            pool.kill_worker(0)
            assert pool.cache_stats()["shards_unavailable"] in (0, 1)

    @staticmethod
    def closed_pool():
        store = ShardedPolicyStore(2)
        store.load(policy("p:a", "alpha"))
        pool = ProcessShardPool(store)
        pool.evaluate(Request.simple("alice", "alpha"))
        pool.close()
        return pool

    def test_a_closed_pool_reports_closed_shards(self):
        """A closed pool used to report its shards ``up``."""
        health = self.closed_pool().health()
        assert health["closed"] is True
        assert health["statuses"] == ["closed", "closed"]
        assert [shard["status"] for shard in health["shards"]] == ["closed", "closed"]

    def test_a_closed_pools_cache_snapshot_counts_every_shard_unavailable(self):
        """It used to raise "the shard pool is closed"."""
        pool = self.closed_pool()
        stats = pool.cache_stats()
        assert stats["shards_unavailable"] == pool.n_shards == 2
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0

    def test_unavailable_errors_counted_in_error_mode(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 5.0)
        store = ShardedPolicyStore(1)
        store.load(policy("p:a", "alpha"))
        with ProcessShardPool(store, on_unavailable="error") as pool:
            pool.kill_worker(0)
            with pytest.raises(ShardUnavailableError):
                pool.evaluate(Request.simple("u", "alpha"))
            assert pool.cache_stats()["unavailable_errors"] >= 1
