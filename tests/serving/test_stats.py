"""Pins for :class:`repro.serving.stats.LatencyRecorder` and the
``stats`` op a live :class:`AsyncDataServer` answers.

The snapshot-atomicity regression: ``snapshot()`` used to take the lock
once per op (``ops`` + one ``summary()`` each), so a mid-run snapshot
could mix counts from different instants — an op recorded *after* an
earlier row was summarized still showed up in a later row.  Every op's
histogram is now copied under a single lock acquisition.
"""

import asyncio
import gc
import threading
from collections import Counter

from repro import obs
from repro.core.user_query import UserQuery
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.stats import LatencyRecorder
from repro.serving.wire import StatsOp, StatsReply
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool

from serving_helpers import TIMEOUT, make_data_server


class CountingLock:
    """A context-manager lock that counts acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestSnapshotAtomicity:
    def test_snapshot_takes_the_lock_exactly_once(self):
        recorder = LatencyRecorder()
        for op in ("EvaluateOp", "IngestOp", "LoadOp", "RevokeOp"):
            for i in range(5):
                recorder.record(op, 0.001 * (i + 1))
        lock = CountingLock()
        recorder._lock = lock
        recorder.snapshot()
        # Pre-fix: 1 (ops) + one per op via summary() = 5 acquisitions.
        assert lock.acquisitions == 1
        lock.acquisitions = 0
        recorder.to_dict()
        assert lock.acquisitions == 1

    def test_snapshot_is_consistent_under_a_concurrent_recorder(self):
        """A writer always records op "a" strictly before op "b"; an
        atomic snapshot can therefore never report more "b" samples
        than "a" samples.  (The per-op-lock implementation summarized
        "a" first, then let the writer complete pairs before "b" was
        summarized — count_b > count_a was observable.)"""
        recorder = LatencyRecorder()

        def writer():
            # Bounded: an open-ended writer would grow the sample lists
            # by millions while each snapshot re-copies and re-sorts
            # them — O(n^2) into gigabytes.
            for _ in range(50_000):
                recorder.record("a", 0.001)
                recorder.record("b", 0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            def check():
                summaries = recorder.snapshot()
                count_a = summaries["a"].count if "a" in summaries else 0
                count_b = summaries["b"].count if "b" in summaries else 0
                assert count_b <= count_a <= count_b + 1

            while thread.is_alive():
                check()
        finally:
            thread.join(timeout=30)
        check()
        assert recorder.snapshot()["a"].count == 50_000

    def test_snapshot_matches_per_op_summaries_when_quiescent(self):
        recorder = LatencyRecorder()
        recorder.record("EvaluateOp", 0.002)
        recorder.record_many("EvaluateOp", [0.004, 0.006])
        recorder.record("IngestOp", 0.010)
        summaries = recorder.snapshot()
        assert set(summaries) == {"EvaluateOp", "IngestOp"}
        assert summaries["EvaluateOp"] == recorder.summary("EvaluateOp")
        assert summaries["EvaluateOp"].count == 3
        assert summaries["IngestOp"] == recorder.summary("IngestOp")

    def test_record_many_is_a_noop_on_empty_batches(self):
        recorder = LatencyRecorder()
        recorder.record_many("EvaluateOp", [])
        assert recorder.count() == 0
        assert recorder.snapshot() == {}


def served(server, scenario):
    """Run ``scenario(client)`` against *server* behind a live front-end."""
    async def run():
        async with AsyncDataServer(server) as front:
            async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                return await scenario(client)

    return asyncio.run(asyncio.wait_for(run(), TIMEOUT))


async def traffic(client):
    """Grants, decisions and a ping, then the server's own snapshot."""
    query = UserQuery("weather", filter_condition="rainrate > 7")
    for _ in range(3):
        await client.evaluate(Request.simple("LTA", "weather"), query)
    await client.evaluate(Request.simple("LTA", "weather"), decide_only=True)
    await client.ping()
    reply = await client.call(StatsOp())
    assert isinstance(reply, StatsReply)
    return reply.values


class TestStatsOp:
    def test_a_live_server_answers_one_flat_schema(self):
        values = served(make_data_server(), traffic)
        assert all(isinstance(name, str) and not isinstance(value, dict)
                   for name, value in values.items())
        # per-op latency, and the front-end's own counters and gauges
        assert values["server.latency.EvaluateOp.count"] == 4
        assert values["server.latency.PingOp.count"] == 1
        assert values["server.ops"] == 5
        for name in ("read_pauses", "protocol_errors", "queue_depth"):
            assert values[f"server.{name}"] == 0
        assert values["server.connections_total"] == values["server.active_connections"] == 1
        # decision cache, grant templates, the six memos, the plan
        assert (values["pdp.cache.hits"], values["pdp.cache.misses"]) == (3, 1)
        assert (values["pep.templates.hits"], values["pep.templates.misses"]) == (2, 1)
        for memo in ("request_parse", "user_query_parse", "compile_batch",
                     "frame_decode", "frame_encode", "templates"):
            assert values[f"memo.{memo}.maxsize"] > 0
        assert values["memo.templates.currsize"] == 1 and values["memo.templates.bytes"] > 0
        assert values["plan.weather.queries"] == values["engine.active_queries"] == 3
        assert values["plan.weather.live_nodes"] >= 1
        # the ServerTiming of every grant, summed per layer
        assert values["timing.requests"] == 3
        layers = [values[f"timing.{layer}"] for layer in ("pdp", "query_graph", "dsms_submit")]
        assert all(seconds > 0 for seconds in layers)
        assert values["timing.compute_total"] >= sum(layers)
        assert values["timing.script_bytes"] > 0
        # the collector
        assert len(values["gc.collections"]) == 3 and values["gc.pause_s"] >= 0
        assert 0 <= values["gc.pause_max_s"] <= values["gc.pause_s"]
        assert len(values["gc.threshold"]) == 3

    def test_the_collector_reports_the_threshold_derived_at_start(self, monkeypatch):
        heap = [None] * (4 * 25_000)
        monkeypatch.setattr(gc, "get_objects", lambda *generation: heap)
        defaults = gc.get_threshold()
        values = served(make_data_server(), traffic)
        assert values["gc.threshold"] == [25_000, *defaults[1:]]
        assert gc.get_threshold() == defaults

    def test_a_pool_adds_per_shard_status_restarts_and_backlog(self):
        server = make_data_server(pdp_shards=2)
        with ProcessShardPool(server.instance.store) as pool:
            server.instance.attach_evaluator(pool)
            values = served(server, traffic)
        assert values["pdp.health.statuses"] == ["up", "up"]
        for shard in range(2):
            assert values[f"pdp.health.shards.{shard}.status"] == "up"
            assert values[f"pdp.health.shards.{shard}.restarts"] == 0
            assert values[f"pdp.health.shards.{shard}.catchup_pending"] == 0
        assert values["pdp.cache.shards_unavailable"] == 0
        assert values["pdp.cache.evaluations"] == 4


#: What one evaluate stamps, by path: a decide-only evaluate on an inline
#: evaluator is answered in a run where it is decoded; a grant, or any
#: evaluate that hops to a pool, waits in the backlog for the drainer.
RUN_SPANS = {"wire.decode", "xml_io.parse_request", "pdp.evaluate", "wire.encode",
             "server.flush_wait", "server.drain"}
BACKLOG_SPANS = RUN_SPANS | {"server.backlog"}
GRANT_SPANS = BACKLOG_SPANS | {"pep.graph", "pep.submit"}


class TestSpans:
    N = 6

    def spans_of(self, pdp_shards=None, **evaluate):
        """Every span stamped over N evaluates, then none once detached."""
        stamped = []

        async def scenario(client):
            for _ in range(self.N):
                await client.evaluate(Request.simple("LTA", "weather"), **evaluate)
            await asyncio.sleep(0)
            obs.spans.sink = None
            spans = list(stamped)
            # Nothing waits for the next op under the sink: once it is
            # detached, no op stamps anything.
            for _ in range(4):
                await client.evaluate(Request.simple("LTA", "weather"), **evaluate)
            await client.ping()
            assert len(stamped) == len(spans)
            return spans

        server = make_data_server(pdp_shards=pdp_shards)
        obs.spans.sink = lambda *span: stamped.append(span)
        try:
            if pdp_shards is None:
                spans = served(server, scenario)
            else:
                with ProcessShardPool(server.instance.store) as pool:
                    server.instance.attach_evaluator(pool)
                    spans = served(server, scenario)
        finally:
            obs.spans.sink = None
        assert all(started <= ended for _, started, ended, _ in spans)
        return spans

    def test_each_decide_span_appears_once_per_op(self):
        spans = self.spans_of(decide_only=True)
        assert Counter(name for name, *_ in spans) == {name: self.N for name in RUN_SPANS}
        assert Counter(tag for name, _, _, tag in spans if name == "pdp.evaluate") == {
            "miss": 1, "hit": self.N - 1}

    def test_each_grant_span_appears_once_per_op(self):
        spans = self.spans_of()
        assert Counter(name for name, *_ in spans) == {name: self.N for name in GRANT_SPANS}
        tags = Counter((name, tag) for name, _, _, tag in spans if tag is not None)
        assert tags == {("pdp.evaluate", "miss"): 1, ("pdp.evaluate", "hit"): self.N - 1,
                        ("pep.graph", "miss"): 1, ("pep.graph", "hit"): self.N - 1}

    def test_a_decide_that_hops_to_a_pool_waits_in_the_backlog(self):
        spans = self.spans_of(pdp_shards=2, decide_only=True)
        assert Counter(name for name, *_ in spans) == {name: self.N for name in BACKLOG_SPANS}

    def test_a_pool_hop_is_tagged(self):
        spans = self.spans_of(pdp_shards=2)
        assert Counter(name for name, *_ in spans) == {name: self.N for name in GRANT_SPANS}
        assert {tag for name, _, _, tag in spans if name == "pdp.evaluate"} == {"pool"}
