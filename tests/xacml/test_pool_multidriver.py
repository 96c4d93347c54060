"""Multi-driver regression pins for :class:`ProcessShardPool` (PR 6–7).

PR 5 shipped the pool single-driver: one FIFO of batch ids per shard,
so a second thread's responses could complete the first thread's
batches.  The tagged protocol replaces that — every command carries a
tag its shard hands out, and one dispatcher per worker generation
routes responses by tag.  PR 7 replaces poison-on-death with
supervision: a worker failure is contained to its shard, retried
against a budget, and degraded (never pool-fatal) once the budget is
exhausted.  These tests pin exactly those guarantees:

- two concurrent drivers with *distinct expected decisions*, under
  interleaved invalidation fan-out, never observe each other's
  responses (tag leakage would surface as a wrong policy id);
- ``close()`` during concurrent driving fails both drivers with a
  prompt :class:`PolicyStoreError` — no hang, no stranded thread —
  and is idempotent, including under concurrent double-close;
- a killed worker fails only its own shard's traffic (typed,
  retryable :class:`ShardUnavailableError`, raised promptly — never by
  waiting out the response timeout), recovers automatically without
  pool reconstruction, and in ``"fallback"`` mode is invisible to
  drivers entirely;
- exhausting the restart budget degrades only the dead shard; healthy
  shards keep serving, and ``revive()`` re-arms the degraded one.
"""

import threading
import time

import pytest

from repro.errors import PolicyStoreError, ShardUnavailableError
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import Effect
from repro.xacml.sharding import ProcessShardPool, ShardedPolicyStore

N_SHARDS = 2
JOIN_TIMEOUT = 30.0


def permit_policy(policy_id, subject):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=subject),
        rules=[Rule(f"{policy_id}:r", Effect.PERMIT)],
    )


def make_store():
    store = ShardedPolicyStore(N_SHARDS)
    store.load(permit_policy("p:alpha", "alpha"))
    store.load(permit_policy("p:beta", "beta"))
    return store


def shard_of_subject(store, subject):
    (shard_id,) = store.shards_for_request(Request.simple(subject, "weather"))
    return shard_id


def wait_for_status(pool, shard_id, status, timeout=15.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if pool.health()["statuses"][shard_id] == status:
            return True
        time.sleep(0.01)
    return False


def evaluate_with_retries(pool, request, timeout=15.0):
    """Retry through the transient unavailable window (supervised
    restart), the way a resilient client would."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            return pool.evaluate(request)
        except ShardUnavailableError:
            if time.perf_counter() >= deadline:
                raise
            time.sleep(0.02)


class _Driver(threading.Thread):
    """Hammers the pool with its own requests; checks every response."""

    def __init__(self, pool, subject, policy_id, batch, rounds=40):
        super().__init__(daemon=True)
        self.pool = pool
        self.requests = [
            Request.simple(subject, f"stream{i}") for i in range(batch)
        ]
        self.policy_id = policy_id
        self.rounds = rounds
        self.mismatches = []
        self.error = None
        self.completed = 0

    def run(self):
        try:
            for _ in range(self.rounds):
                responses = self.pool.evaluate_many(self.requests)
                if len(responses) != len(self.requests):
                    self.mismatches.append(f"got {len(responses)} responses")
                for response in responses:
                    if response.policy_id != self.policy_id:
                        self.mismatches.append(
                            f"expected {self.policy_id}, got {response.policy_id}"
                        )
                self.completed += 1
        except PolicyStoreError as error:
            self.error = error


class TestTwoConcurrentDrivers:
    def test_no_cross_driver_tag_leakage_under_invalidation_churn(
        self, monkeypatch
    ):
        monkeypatch.setattr(ProcessShardPool, "BATCH_SIZE", 3)
        store = make_store()
        with ProcessShardPool(store) as pool:
            alpha = _Driver(pool, "alpha", "p:alpha", batch=7)
            beta = _Driver(pool, "beta", "p:beta", batch=5)
            alpha.start()
            beta.start()
            # Interleave mutations from a third thread (the listener
            # fan-out is synchronous, so every one of these round-trips
            # through the workers between the drivers' batches).
            for i in range(20):
                store.load(permit_policy(f"p:churn{i}", f"churner{i}"))
                store.remove(f"p:churn{i}")
            alpha.join(JOIN_TIMEOUT)
            beta.join(JOIN_TIMEOUT)
            assert not alpha.is_alive() and not beta.is_alive()
            for driver in (alpha, beta):
                assert driver.error is None
                assert driver.mismatches == []
                assert driver.completed == driver.rounds
            # Every response found its call: nothing is left pending.
            assert [runtime.pending for runtime in pool._runtimes] == [{}, {}]

    def test_single_calls_from_many_threads_stay_routed(self):
        store = make_store()
        errors = []

        def probe(subject, policy_id):
            try:
                for _ in range(25):
                    response = pool.evaluate(Request.simple(subject, "weather"))
                    assert response.policy_id == policy_id
            except Exception as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        with ProcessShardPool(store) as pool:
            threads = [
                threading.Thread(target=probe, args=("alpha", "p:alpha")),
                threading.Thread(target=probe, args=("beta", "p:beta")),
                threading.Thread(target=probe, args=("alpha", "p:alpha")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
            assert errors == []


class TestCloseDrainsAllDrivers:
    def test_close_during_concurrent_driving_fails_both_promptly(self):
        store = make_store()
        pool = ProcessShardPool(store)
        alpha = _Driver(pool, "alpha", "p:alpha", batch=4, rounds=10**6)
        beta = _Driver(pool, "beta", "p:beta", batch=4, rounds=10**6)
        alpha.start()
        beta.start()
        # Let both drivers get in flight, then yank the pool.
        while alpha.completed == 0 or beta.completed == 0:
            time.sleep(0.005)
        pool.close()
        alpha.join(JOIN_TIMEOUT)
        beta.join(JOIN_TIMEOUT)
        assert not alpha.is_alive() and not beta.is_alive()
        for driver in (alpha, beta):
            assert isinstance(driver.error, PolicyStoreError)
            assert driver.mismatches == []

    def test_double_close_is_idempotent(self):
        store = make_store()
        pool = ProcessShardPool(store)
        assert pool.evaluate(
            Request.simple("alpha", "weather")
        ).policy_id == "p:alpha"
        pool.close()
        pool.close()  # second close is a no-op, not an error
        with pytest.raises(PolicyStoreError, match="closed"):
            pool.evaluate(Request.simple("alpha", "weather"))
        # The store detached exactly once and stays fully usable: a
        # fresh pool can attach to it again.
        store.load(permit_policy("p:after", "after"))
        with ProcessShardPool(store) as second:
            assert second.evaluate(
                Request.simple("after", "weather")
            ).policy_id == "p:after"

    def test_concurrent_double_close_under_drivers(self):
        store = make_store()
        pool = ProcessShardPool(store)
        alpha = _Driver(pool, "alpha", "p:alpha", batch=4, rounds=10**6)
        beta = _Driver(pool, "beta", "p:beta", batch=4, rounds=10**6)
        alpha.start()
        beta.start()
        while alpha.completed == 0 or beta.completed == 0:
            time.sleep(0.005)
        n_closers = 4
        barrier = threading.Barrier(n_closers)
        close_errors = []

        def closer():
            barrier.wait()
            try:
                pool.close()
            except Exception as error:  # noqa: BLE001 — collected for assert
                close_errors.append(error)

        closers = [
            threading.Thread(target=closer, daemon=True)
            for _ in range(n_closers)
        ]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in closers)
        assert close_errors == []
        alpha.join(JOIN_TIMEOUT)
        beta.join(JOIN_TIMEOUT)
        assert not alpha.is_alive() and not beta.is_alive()
        for driver in (alpha, beta):
            assert isinstance(driver.error, PolicyStoreError)
            assert driver.mismatches == []


class TestSupervisedRecovery:
    def test_worker_death_fails_only_its_shard_then_recovers(self, monkeypatch):
        store = make_store()
        alpha_request = Request.simple("alpha", "weather")
        beta_request = Request.simple("beta", "weather")
        alpha_sid = shard_of_subject(store, "alpha")
        beta_sid = shard_of_subject(store, "beta")
        assert alpha_sid != beta_sid
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.5)
        with ProcessShardPool(store, on_unavailable="error") as pool:
            assert pool.evaluate(alpha_request).policy_id == "p:alpha"
            pool.kill_worker(alpha_sid)
            # The dead shard's traffic fails with the typed, retryable
            # error within the supervision window...
            with pytest.raises(ShardUnavailableError) as excinfo:
                deadline = time.perf_counter() + 5.0
                while time.perf_counter() < deadline:
                    pool.evaluate(alpha_request)
            assert excinfo.value.retryable
            assert excinfo.value.shard_id == alpha_sid
            # ...while the healthy shard never notices.
            assert pool.evaluate(beta_request).policy_id == "p:beta"
            # The shard recovers automatically — same pool object, no
            # reconstruction — and serves correct decisions again.
            assert evaluate_with_retries(
                pool, alpha_request
            ).policy_id == "p:alpha"
            health = pool.health()
            assert health["worker_restarts"] >= 1
            assert health["statuses"][beta_sid] == "up"

    def test_fallback_mode_serves_through_crash_and_restart(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 0.5)
        store = make_store()
        alpha_sid = shard_of_subject(store, "alpha")
        with ProcessShardPool(store) as pool:
            alpha = _Driver(
                pool, "alpha", "p:alpha", batch=4, rounds=300
            )
            beta = _Driver(pool, "beta", "p:beta", batch=4, rounds=300)
            alpha.start()
            beta.start()
            while alpha.completed == 0 or beta.completed == 0:
                time.sleep(0.005)
            pool.kill_worker(alpha_sid)
            alpha.join(JOIN_TIMEOUT)
            beta.join(JOIN_TIMEOUT)
            assert not alpha.is_alive() and not beta.is_alive()
            # Decision-identical fallback: the crash is invisible to
            # both drivers — every round completed, every decision
            # named the expected policy.
            for driver in (alpha, beta):
                assert driver.error is None
                assert driver.mismatches == []
                assert driver.completed == driver.rounds
            stats = pool.cache_stats()
            assert stats["fallback_evaluations"] > 0
            assert wait_for_status(pool, alpha_sid, "up")
            assert pool.health()["worker_restarts"] >= 1

    def test_unavailable_error_is_prompt_and_typed_not_a_timeout(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "RESTART_BACKOFF", 30.0)
        store = make_store()
        alpha_sid = shard_of_subject(store, "alpha")
        with ProcessShardPool(store, on_unavailable="error") as pool:
            request = Request.simple("alpha", "weather")
            assert pool.evaluate(request).policy_id == "p:alpha"
            pool.kill_worker(alpha_sid)
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError):
                deadline = started + 5.0
                while time.perf_counter() < deadline:
                    pool.evaluate(request)
            # Must fail via death detection (sub-second), never by
            # waiting out the full response timeout.
            assert time.perf_counter() - started < pool.RESPONSE_TIMEOUT / 2

    def test_budget_exhaustion_degrades_only_that_shard(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "MAX_RESTARTS", 0)
        store = make_store()
        alpha_request = Request.simple("alpha", "weather")
        beta_request = Request.simple("beta", "weather")
        alpha_sid = shard_of_subject(store, "alpha")
        with ProcessShardPool(store, on_unavailable="error") as pool:
            pool.kill_worker(alpha_sid)
            assert wait_for_status(pool, alpha_sid, "degraded")
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.evaluate(alpha_request)
            assert excinfo.value.degraded
            assert not excinfo.value.retryable
            # Only the dead shard degraded; its neighbour serves on.
            assert pool.evaluate(beta_request).policy_id == "p:beta"
            health = pool.health()
            assert health["degraded_shards"] == [alpha_sid]
            # revive() grants a fresh restart outside the budget.
            pool.revive(alpha_sid)
            assert wait_for_status(pool, alpha_sid, "up")
            assert evaluate_with_retries(
                pool, alpha_request
            ).policy_id == "p:alpha"

    def test_degraded_shard_falls_back_decision_identically(self, monkeypatch):
        monkeypatch.setattr(ProcessShardPool, "MAX_RESTARTS", 0)
        store = make_store()
        alpha_request = Request.simple("alpha", "weather")
        alpha_sid = shard_of_subject(store, "alpha")
        with ProcessShardPool(store) as pool:
            pool.kill_worker(alpha_sid)
            assert wait_for_status(pool, alpha_sid, "degraded")
            # Fallback answers from the authoritative parent replica —
            # including mutations applied *after* degradation, which
            # the dead worker never saw.
            assert pool.evaluate(alpha_request).policy_id == "p:alpha"
            store.update(
                Policy(
                    "p:alpha",
                    target=Target.for_ids(subject="alpha"),
                    rules=[Rule("p:alpha:deny", Effect.DENY)],
                )
            )
            assert pool.evaluate(alpha_request).decision.value == "Deny"
            assert pool.cache_stats()["fallback_evaluations"] >= 2
