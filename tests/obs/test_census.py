"""Census of every monitoring key a reader outside its module uses.

Each component keeps its counters and its ``stats()`` /
``cache_stats()`` / ``health()`` / ``plan_stats()`` / ``Memo.info()``
view; an :class:`~repro.serving.server.AsyncDataServer`'s registry reads
them at snapshot time into one flat schema of dotted names (what a
``stats`` op answers).  This module pins both ends by name: the key set
of every view, and the dotted name each key has in
``front.registry.snapshot()`` — a renamed or dropped key fails here, not
in a dashboard.
"""

import asyncio
import gc

from repro import obs
from repro.core import stream_policy
from repro.framework.server import DataServer
from repro.serving.server import AsyncDataServer, IngestRun
from repro.serving.stats import LatencyRecorder
from repro.serving.wire import IngestOp
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool, ShardedPDP, ShardedPolicyStore

#: ``DecisionCache.stats()`` = ``PolicyDecisionPoint.cache_stats()``.
DECISION_CACHE = {"entries", "hits", "misses", "invalidations", "full_flushes",
                  "targeted_evictions", "hit_rate"}
#: ``ScatterEvaluator.stats()``.
SCATTER = DECISION_CACHE | {"merges", "coalesced", "retries", "timeouts"}
#: ``ShardRouter.cache_stats()`` (a ``ShardedPDP``'s).
ROUTER = DECISION_CACHE | {f"scatter_{key}" for key in SCATTER} | {
    "routed", "scattered", "evaluations"}
#: ``ProcessShardPool.cache_stats()`` and ``.health()``.
ROBUSTNESS = {"worker_restarts", "fallback_evaluations", "unavailable_errors"}
POOL_CACHE = ROUTER | ROBUSTNESS | {"shards_unavailable"}
POOL_HEALTH = ROBUSTNESS | {"closed", "on_unavailable", "shards", "statuses",
                            "degraded_shards"}
POOL_SHARD = {"shard_id", "status", "restarts", "catchup_pending", "last_error"}
#: ``ShardedPolicyStore.stats()``, ``PolicyIndex.stats()``.
STORE = {"n_shards", "policies", "replicated", "per_shard", "events_published"}
INDEX = {"policies"} | {f"{category}_{kind}" for category in ("subject", "resource", "action")
                        for kind in ("buckets", "wildcards")}
#: ``StreamPlan.stats()``, per stream in ``StreamEngine.plan_stats()``.
PLAN = {"queries", "live_nodes", "nodes_created", "nodes_shared", "nodes_subsumed"}
#: ``repro.obs.Memo.info()``, of the six memos: the five in
#: ``repro.obs.MEMOS`` and the serving PEP's templates.
CACHE_INFO = {"hits", "misses", "maxsize", "currsize", "bytes"}
MEMOS = {"request_parse", "user_query_parse", "compile_batch", "frame_decode",
         "frame_encode", "templates"}
#: The collector's view (``repro.obs._gc_view``).
GC = {"collections", "collected", "pause_s", "pause_max_s", "threshold"}
#: A ``LatencyRecorder.to_dict()`` row.
ROW = {"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"}
#: The front end's own counters in the ``server`` view.
SERVER = {"ops", "writes", "read_pauses", "protocol_errors", "connections_total",
          "active_connections", "queue_depth", "ingest_runs", "ingest_run_ops"}


def policy():
    return stream_policy(
        "p1", "weather", QueryGraph("weather").append(FilterOperator("rainrate > 5")),
        subject="LTA",
    )


def front_of():
    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    server = DataServer(engine=engine, enforce_single_access=False, allow_partial_results=True)
    server.load_policy(policy())
    return AsyncDataServer(server)


def sharded_store():
    store = ShardedPolicyStore(2)
    store.load(policy())
    return store


def assert_published(snapshot, prefix, keys):
    missing = {key for key in keys if f"{prefix}.{key}" not in snapshot}
    assert not missing, f"{prefix}: {sorted(missing)}"


class TestSingleStore:
    def test_every_view_keeps_its_keys_and_its_dotted_names(self):
        front = front_of()
        instance = front.server.instance
        instance.request_stream(Request.simple("LTA", "weather"))
        snapshot = front.registry.snapshot()

        assert set(instance.pdp.cache.stats()) == DECISION_CACHE
        assert set(instance.pdp.cache_stats()) == DECISION_CACHE
        assert_published(snapshot, "pdp.cache", DECISION_CACHE)
        assert set(instance.store.index.stats()) == INDEX
        assert_published(snapshot, "store.index", INDEX)
        plans = instance.engine.plan_stats()
        assert set(plans) == {"weather"} and set(plans["weather"]) == PLAN
        assert_published(snapshot, "plan.weather", PLAN)
        assert snapshot["plan.weather.queries"] == 1
        assert set(obs.MEMOS) | {"templates"} == MEMOS
        for memo in MEMOS:
            assert_published(snapshot, f"memo.{memo}", CACHE_INFO)
        assert set(instance.pep.templates.info()._fields) == CACHE_INFO
        assert set(obs._gc_view()) == GC
        assert_published(snapshot, "gc", GC)
        assert snapshot["gc.threshold"] == list(gc.get_threshold())
        assert not any(name.startswith(("pdp.health", "store.n_shards")) for name in snapshot)

    def test_template_memo_counters(self):
        front = front_of()
        instance = front.server.instance
        for _ in range(2):
            instance.request_stream(Request.simple("LTA", "weather"))
        snapshot = front.registry.snapshot()
        assert (snapshot["pep.templates.hits"], snapshot["pep.templates.misses"]) == (1, 1)
        assert snapshot["pep.templates.entries"] == snapshot["memo.templates.currsize"] == 1
        assert snapshot["memo.templates.bytes"] == instance.pep.templates.bytes > 0

    def test_what_the_end_to_end_benchmark_reads(self):
        """``benchmarks/e2e/serve.py`` reads ``front.stats`` (and
        replaces it), ``count()``, ``read_pauses``, ``cache_stats()``,
        ``plan_stats()``, ``active_query_count`` and
        ``graph_manager.revocations``."""
        front = front_of()
        instance = front.server.instance
        instance.request_stream(Request.simple("LTA", "weather"))
        front.stats.record("EvaluateOp", 0.001)
        front.stats = LatencyRecorder()     # the benchmark resets it so
        front.stats.record("PingOp", 0.002)
        front.read_pauses = 3
        snapshot = front.registry.snapshot()
        assert front.stats.count() == snapshot["server.ops"] == 1
        assert set(front.stats.to_dict()["PingOp"]) == ROW
        assert_published(snapshot, "server.latency.PingOp", ROW)
        assert "server.latency.EvaluateOp.count" not in snapshot
        assert snapshot["server.read_pauses"] == 3
        assert snapshot["engine.active_queries"] == instance.engine.active_query_count == 1
        assert snapshot["graph_manager.revocations"] == instance.graph_manager.revocations
        assert snapshot["pdp.cache.misses"] == instance.pdp.cache_stats()["misses"] == 1


    def test_ingest_run_counters_give_the_mean_run_size(self):
        """``server.ingest_runs`` / ``server.ingest_run_ops``: a lone
        ingest is a run of one."""
        front = front_of()
        records = WeatherSource(seed=3).records(4)
        run = IngestRun([IngestOp("weather", records[:2]), IngestOp("weather", records[2:])])
        assert [reply.count for reply in asyncio.run(front.execute(run))] == [2, 2]
        assert asyncio.run(front.execute(IngestOp("weather", records))).count == 4
        snapshot = front.registry.snapshot()
        assert_published(snapshot, "server", SERVER)
        assert (snapshot["server.ingest_runs"], snapshot["server.ingest_run_ops"]) == (2, 3)


class TestSharded:
    """No served instance is sharded, so the sharded evaluators' views
    are pinned on a loaded store of their own."""

    def test_sharded_views_keep_their_keys(self):
        store = sharded_store()
        pdp = ShardedPDP(store)
        pdp.evaluate(Request.simple("LTA", "weather"))
        assert set(pdp.scatter.stats()) == SCATTER
        assert set(pdp.cache_stats()) == ROUTER
        assert set(store.stats()) == STORE
        for shard in store.shards:
            assert set(shard.index.stats()) == INDEX

    def test_pool_views_keep_their_keys(self):
        with ProcessShardPool(sharded_store()) as pool:
            pool.evaluate(Request.simple("LTA", "weather"))
            assert set(pool.cache_stats()) == POOL_CACHE
            health = pool.health()
        assert set(health) == POOL_HEALTH
        assert all(set(shard) == POOL_SHARD for shard in health["shards"])


def test_a_pdp_tag_is_a_hit_or_a_miss():
    pdp = front_of().server.instance.pdp
    tags = []
    for subject in ("LTA", "LTA", "guest"):
        hits = pdp.cache.hits
        pdp.evaluate(Request.simple(subject, "weather"))
        tags.append(obs.pdp_tag(pdp, hits))
    assert tags == ["miss", "hit", "miss"]
