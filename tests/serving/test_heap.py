"""The served process's young generation (``repro.obs.own_young_generation``).

While an :class:`AsyncDataServer` serves, generation 0 waits for a
quarter of the heap read at ``start()`` (never fewer than CPython's 700
objects); the first server to start sets it, the last to close restores
what it found, and a ``start()`` that cannot bind changes nothing.  The
collector stays on: the setting only spaces young collections out.  The
cycle-free census (``TestTheServedPathLeavesNoCycles``) is what makes
that free: with the collector off, serving every op kind leaves nothing
for it to find.
"""

import asyncio
import gc
import re
import socket
import weakref
from pathlib import Path

import pytest

from repro import obs
from repro.core import stream_policy
from repro.core.user_query import UserQuery
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving.wire import (
    EvaluateOp,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    StatsOp,
    UpdateOp,
    encode_frame,
)
from repro.streams.sources import WeatherSource
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

from serving_helpers import TIMEOUT, make_data_server, weather_graph

SRC = Path(__file__).resolve().parents[2] / "src"


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, TIMEOUT))


@pytest.fixture
def found():
    """The thresholds before the test; no server may be serving."""
    assert obs._young_owners[0] == 0, "a server from an earlier test is still serving"
    before = gc.get_threshold()
    yield before
    after = gc.get_threshold()
    gc.set_threshold(*before)
    assert after == before


def heap_of(monkeypatch, objects):
    """Make the heap ``start()`` reads hold *objects* objects."""
    heap = [None] * objects
    monkeypatch.setattr(gc, "get_objects", lambda *generation: heap)


class TestTheThreshold:
    def test_a_quarter_of_the_heap_at_start_then_restored(self, found, monkeypatch):
        async def scenario():
            front = await AsyncDataServer(make_data_server()).start()
            heap_of(monkeypatch, 4 * 50_000)     # read once, at start()
            serving = gc.get_threshold()
            await front.aclose()
            return serving

        heap_of(monkeypatch, 4 * 10_000 + 3)
        assert run(scenario()) == (10_000, *found[1:])
        assert gc.get_threshold() == found

    def test_never_below_cpythons_default(self, found, monkeypatch):
        heap_of(monkeypatch, 1_000)

        async def scenario():
            async with AsyncDataServer(make_data_server()):
                return gc.get_threshold()

        assert run(scenario()) == (700, *found[1:])

    def test_the_first_server_sets_it_and_the_last_restores_it(self, found, monkeypatch):
        async def scenario():
            heap_of(monkeypatch, 4 * 10_000)
            first = await AsyncDataServer(make_data_server()).start()
            heap_of(monkeypatch, 4 * 90_000)
            second = await AsyncDataServer(make_data_server()).start()
            both = gc.get_threshold()
            await first.aclose()
            second_alone = gc.get_threshold()
            await second.aclose()
            return both, second_alone

        both, second_alone = run(scenario())
        assert both == second_alone == (10_000, *found[1:])
        assert gc.get_threshold() == found and obs._young_owners[0] == 0

    def test_closing_twice_gives_it_back_once(self, found, monkeypatch):
        heap_of(monkeypatch, 4 * 10_000)

        async def scenario():
            async with AsyncDataServer(make_data_server()) as front:
                await front.aclose()

        run(scenario())
        assert gc.get_threshold() == found and obs._young_owners[0] == 0

    def test_a_start_that_cannot_bind_leaves_it_untouched(self, found, monkeypatch):
        heap_of(monkeypatch, 4 * 10_000)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            front = AsyncDataServer(make_data_server(), port=taken.getsockname()[1])
            with pytest.raises(OSError):
                run(front.start())
        assert gc.get_threshold() == found and obs._young_owners[0] == 0
        run(front.aclose())     # never started: nothing to give back
        assert gc.get_threshold() == found


class Cycle:
    def __init__(self):
        self.me = self


class TestTheCollectorStaysABackstop:
    def test_threshold_plus_one_fresh_cycles_are_collected_young(self, found):
        assert gc.isenabled()

        async def scenario():
            async with AsyncDataServer(make_data_server()):
                threshold = gc.get_threshold()[0]
                assert threshold >= len(gc.get_objects()) // 5
                gc.collect()
                young = gc.get_stats()[0]["collections"]
                freed = []
                for index in range(threshold + 1):
                    cycle = Cycle()
                    if index in (0, threshold):
                        weakref.finalize(cycle, freed.append, index)
                    del cycle
                    if freed:
                        break
                return freed, gc.get_stats()[0]["collections"] - young

        freed, collections = run(scenario())
        assert freed == [0] and collections >= 1

    def test_no_freezing_and_no_switching_it_off_under_src(self):
        pattern = re.compile(r"\bgc\.(freeze|disable)\b")
        offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                     if pattern.search(path.read_text())]
        assert offenders == []


class TestTheServedPathLeavesNoCycles:
    """With the collector off, a live socket serves every op kind — a
    decide-only evaluate, a full grant, load, update, revoke, ingest,
    ping, stats, an undecodable frame and an op whose execute raises —
    and ``gc.collect()`` then finds nothing.  Connecting and closing
    stay outside the counted span; the client renders every document
    inside it."""

    def test_rendering_xml_leaves_no_garbage(self):
        policy = stream_policy("p:NEA", "weather", weather_graph(7), subject="NEA")
        query = UserQuery("weather", filter_condition="rainrate > 7")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for _ in range(100):
                request_to_xml(Request.simple("LTA", "weather"))
                policy_to_xml(policy)
                query.to_xml()
            garbage = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert garbage == 0

    def test_every_op_kind_leaves_no_garbage(self):
        def render():
            records = WeatherSource(seed=5).records(40)
            lta = request_to_xml(Request.simple("LTA", "weather"))
            return [
                EvaluateOp(lta, None, True),
                EvaluateOp(lta, UserQuery("weather", filter_condition="rainrate > 7").to_xml()),
                LoadOp(policy_to_xml(stream_policy("p:NEA", "weather", weather_graph(7),
                                                   subject="NEA"))),
                EvaluateOp(request_to_xml(Request.simple("NEA", "weather"))),
                UpdateOp(policy_to_xml(stream_policy("p:NEA", "weather", weather_graph(9),
                                                     subject="NEA"))),
                IngestOp("weather", records),
                RevokeOp("p:NEA"),
                PingOp(),
                StatsOp(),
                IngestOp("weather", [dict(records[0], samplingtime="yesterday")]),
            ]

        async def scenario():
            async with AsyncDataServer(make_data_server()) as front:
                async with await AsyncClient.connect("127.0.0.1", front.port) as client:
                    await client.ping()
                    gc.collect()
                    replies = [await client.call(op) for op in render()]
                    client._writer.write(encode_frame(b"\xff not a frame payload"))
                    await client._writer.drain()
                    replies.append(await client._read_reply(-1))
                    garbage = gc.collect()
                return replies, garbage

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            replies, garbage = run(scenario())
        finally:
            if was_enabled:
                gc.enable()
        assert [type(reply).__name__ for reply in replies] == [
            "EvaluateReply", "EvaluateReply", "AckReply", "EvaluateReply", "AckReply",
            "AckReply", "AckReply", "AckReply", "StatsReply", "ErrorReply", "ErrorReply"]
        assert replies[0].decision == "Permit" and replies[0].handle_uri is None
        assert replies[1].handle_uri and replies[3].handle_uri
        assert [reply.op for reply in replies[4:8]] == ["update", "ingest", "revoke", "ping"]
        assert replies[8].values["server.ops"] == 9
        assert replies[9].error_kind == "SchemaError"
        assert replies[10].error_kind == "TransportError"
        assert garbage == 0
