"""Tests for framework message types and payload accounting."""

from repro.core.user_query import UserQuery
from repro.framework.messages import (
    DirectQueryMessage,
    StreamRequestMessage,
    StreamResponseMessage,
)
from repro.xacml.request import Request


class TestStreamRequestMessage:
    def test_payload_grows_with_query(self):
        request = Request.simple("LTA", "weather")
        bare = StreamRequestMessage(request, None)
        with_query = StreamRequestMessage(
            request, UserQuery("weather", filter_condition="rainrate > 50")
        )
        assert with_query.payload_bytes() > bare.payload_bytes() > 0

    def test_cache_key_components(self):
        request = Request.simple("LTA", "weather")
        bare = StreamRequestMessage(request, None)
        assert "LTA" in bare.cache_key()
        assert "weather" in bare.cache_key()

    def test_cache_key_distinguishes_subject(self):
        first = StreamRequestMessage(Request.simple("LTA", "weather"), None)
        second = StreamRequestMessage(Request.simple("NEA", "weather"), None)
        assert first.cache_key() != second.cache_key()

    def test_cache_key_distinguishes_query(self):
        request = Request.simple("LTA", "weather")
        first = StreamRequestMessage(request, None)
        second = StreamRequestMessage(
            request, UserQuery("weather", filter_condition="rainrate > 50")
        )
        third = StreamRequestMessage(
            request, UserQuery("weather", filter_condition="rainrate > 51")
        )
        assert len({first.cache_key(), second.cache_key(), third.cache_key()}) == 3

    def test_identical_requests_share_key(self):
        first = StreamRequestMessage(
            Request.simple("LTA", "weather"),
            UserQuery("weather", filter_condition="rainrate > 50"),
        )
        second = StreamRequestMessage(
            Request.simple("LTA", "weather"),
            UserQuery("weather", filter_condition="rainrate > 50"),
        )
        assert first.cache_key() == second.cache_key()


class TestStreamResponseMessage:
    def test_ok_semantics(self):
        assert StreamResponseMessage("stream://h/q1").ok
        assert not StreamResponseMessage(None, "denied", "no policy").ok

    def test_payload_floor(self):
        assert StreamResponseMessage("x").payload_bytes() >= 64

    def test_error_payload_counts_detail(self):
        short = StreamResponseMessage(None, "nr", "x" * 10)
        long = StreamResponseMessage(None, "nr", "x" * 5000)
        assert long.payload_bytes() > short.payload_bytes()


class TestOtherMessages:
    def test_direct_query_payload(self):
        script = "SELECT * FROM w WHERE x > 1 INTO o;"
        assert DirectQueryMessage(script).payload_bytes() == len(script)
