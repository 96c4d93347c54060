"""Pool-recovery benchmark — one shard worker killed under load.

Driver threads push the loadgen population's seeded evaluates through
a 4-shard ``ProcessShardPool`` in ``on_unavailable="error"`` mode, in
``evaluate_many`` batches, retrying each batch on a retryable
``ShardUnavailableError``, while one worker is killed mid-run.  The
pool is a batch evaluator and no served path reaches it, so it is
driven directly.  Reported in ``BENCH_pool_recovery.json``: recovery
time (kill → first successful answer routed to the killed shard) and
the p99 impact on driver-observed batch latency (post-kill window vs
pre-kill baseline).

Served throughput and latency are ``benchmarks/e2e``'s business, and
the pool's decisions under faults are ``tests/chaos``'.
"""

import threading
import time

from benchmarks.harness import emit, gate, print_header
from repro.errors import ShardUnavailableError
from repro.framework.metrics import summarize
from repro.loadgen.config import LoadgenConfig, MixWeights
from repro.loadgen.driver import build_server
from repro.loadgen.mix import OpMixStream, stream_name, subject_name
from repro.xacml.request import Request
from repro.xacml.response import Decision
from repro.xacml.sharding import ProcessShardPool, ShardedPolicyStore
from repro.xacml.xml_io import parse_request_xml

N_SHARDS = 4
N_DRIVERS = 4
REQUESTS_PER_DRIVER = 400
BATCH = 8                           # requests per evaluate_many call
WARMUP_REQUESTS = 300               # answered requests before the kill
MAX_RETRIES, RETRY_BASE_DELAY, RETRY_MAX_DELAY = 200, 0.01, 0.1
JOIN_TIMEOUT = 120.0
#: The loadgen population and its seeded evaluate stream, 1 in 5 from
#: a stranger.
WORKLOAD = LoadgenConfig(
    seed=4_1_2012,
    streams=8,
    subjects_per_stream=12,
    mix=MixWeights.parse("evaluate=1"),
    stranger_fraction=0.2,
)


def make_store() -> ShardedPolicyStore:
    """The loadgen population over a sharded store."""
    store = ShardedPolicyStore(N_SHARDS)
    for policy in build_server(WORKLOAD).instance.store.policies():
        store.load(policy)
    return store


def driver_requests(driver_id):
    ops = OpMixStream(WORKLOAD, 0, driver_id)
    return [parse_request_xml(ops.next_op().request_xml) for _ in range(REQUESTS_PER_DRIVER)]


def evaluate_with_retries(pool, requests, retries):
    """``pool.evaluate_many(requests)``, retried with doubling backoff
    on a retryable ``ShardUnavailableError``; each retry is appended
    to *retries*."""
    delay = RETRY_BASE_DELAY
    for _ in range(MAX_RETRIES):
        try:
            return pool.evaluate_many(requests)
        except ShardUnavailableError as error:
            if not error.retryable:
                raise
        retries.append(delay)
        time.sleep(delay)
        delay = min(2 * delay, RETRY_MAX_DELAY)
    return pool.evaluate_many(requests)


def run_recovery_benchmark():
    """Kill one shard worker mid-run; measure recovery and p99 impact.

    ``on_unavailable="error"`` is deliberate: fallback mode would hide
    the outage entirely, so nothing could be measured.  The retrying
    drivers see retryable errors until the supervisor's rebuild
    readmits the worker — recovery time is the kill-to-first-success
    gap on a request pinned to the killed shard.
    """
    store = make_store()
    target_request = Request.simple(subject_name(0, 0), stream_name(0))
    (target_shard,) = store.shards_for_request(target_request)
    streams = [driver_requests(driver_id) for driver_id in range(N_DRIVERS)]

    latencies = {"pre": [], "post": []}
    marks = {"killed_at": None, "recovered_at": None}
    answered = [0]
    retries, failures = [], []
    lock = threading.Lock()

    with ProcessShardPool(store, on_unavailable="error") as pool:

        def driver(requests):
            for start in range(0, len(requests), BATCH):
                batch = requests[start:start + BATCH]
                started = time.monotonic()
                responses = evaluate_with_retries(pool, batch, retries)
                elapsed = time.monotonic() - started
                assert len(responses) == len(batch)
                with lock:
                    window = "post" if marks["killed_at"] else "pre"
                    latencies[window].append(elapsed)
                    answered[0] += len(batch)

        def assassin():
            while answered[0] < WARMUP_REQUESTS:
                time.sleep(0.005)
            with lock:
                marks["killed_at"] = time.monotonic()
            pool.kill_worker(target_shard, reason="bench: mid-run kill")
            # One logical call whose retry loop rides through the
            # backoff, respawn and replay: its completion IS the first
            # post-kill success on the killed shard.
            (response,) = evaluate_with_retries(pool, [target_request], retries)
            assert response.decision is Decision.PERMIT, response
            marks["recovered_at"] = time.monotonic()

        def guarded(body, *args):
            try:
                body(*args)
            except Exception as error:
                failures.append(error)

        threads = [threading.Thread(target=guarded, args=(assassin,))] + [
            threading.Thread(target=guarded, args=(driver, requests))
            for requests in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads), "a driver hung"
        health = pool.health()
    if failures:
        raise failures[0]

    p99_pre = summarize(latencies["pre"]).p99 * 1000.0
    p99_post = summarize(latencies["post"]).p99 * 1000.0
    return {
        "model": "measured",
        "shards": N_SHARDS,
        "drivers": N_DRIVERS,
        "batch": BATCH,
        "requests": answered[0],
        "killed_shard": target_shard,
        "recovery_seconds": marks["recovered_at"] - marks["killed_at"],
        "p99_ms_pre_kill": p99_pre,
        "p99_ms_post_kill": p99_post,
        "p99_impact": p99_post / p99_pre,
        "client_retries": len(retries),
        "worker_restarts": health["worker_restarts"],
        "degraded_shards": health["degraded_shards"],
    }


def test_pool_recovery(benchmark):
    recovery = benchmark.pedantic(run_recovery_benchmark, rounds=1, iterations=1)
    print_header(
        f"Pool recovery — {recovery['requests']} evaluates in batches of "
        f"{recovery['batch']} from {recovery['drivers']} retrying driver threads, "
        f"{recovery['shards']} shards"
    )
    print(
        f"  worker kill     : shard {recovery['killed_shard']} of "
        f"{recovery['shards']}, recovered in "
        f"{recovery['recovery_seconds'] * 1000:.0f} ms "
        f"({recovery['worker_restarts']} restart(s), "
        f"{recovery['client_retries']} driver retries)\n"
        f"  batch p99       : {recovery['p99_ms_pre_kill']:.2f} ms pre-kill, "
        f"{recovery['p99_ms_post_kill']:.2f} ms post-kill "
        f"({recovery['p99_impact']:.1f}x)"
    )
    emit("pool_recovery", "recovery", recovery)

    # The kill really happened and really healed — without pool
    # reconstruction and without exhausting the retry budget — and
    # recovery stayed within the supervision design envelope (the kill
    # takes the shard down at once, then RESTART_BACKOFF + respawn and
    # replay; generous headroom on shared runners).  The p99 numbers
    # are reported, not gated: latency through a retry loop is too
    # noisy to gate on.
    assert recovery["worker_restarts"] >= 1
    assert recovery["degraded_shards"] == []
    assert recovery["client_retries"] >= 1
    gate("pool_recovery", "recovery_seconds", recovery["recovery_seconds"], ceiling=30.0)
