"""Shared builders for the serving-layer tests.

Everything here is loopback-only and time-bounded: tier-1 must never
hang on a socket (`asyncio.wait_for` with :data:`TIMEOUT` wraps every
awaited stage in the tests).
"""

from __future__ import annotations

from repro.core import stream_policy
from repro.framework.server import DataServer
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.attributes import SUBJECT_ID, Attribute, AttributeCategory, AttributeValue
from repro.xacml.request import Request

#: Generous against CI jitter, far below any human-noticeable hang.
TIMEOUT = 30.0


def weather_graph(threshold: int = 5, stream: str = "weather") -> QueryGraph:
    return QueryGraph(stream).append(FilterOperator(f"rainrate > {threshold}"))


def make_data_server(
    subjects=("LTA",), streams=("weather",), pdp_shards=None
) -> DataServer:
    """A real DataServer (the service core, no simulated network), with
    one permissive stream policy per subject on the first stream."""
    engine = StreamEngine()
    for stream in streams:
        engine.register_input_stream(stream, WEATHER_SCHEMA)
    server = DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
        pdp_shards=pdp_shards,
    )
    for subject in subjects:
        server.load_policy(
            stream_policy(
                f"p:{subject}",
                streams[0],
                weather_graph(stream=streams[0]),
                subject=subject,
            )
        )
    return server


def spanning_request(second: str) -> Request:
    """LTA's weather request with a second subject-id, *second*: a
    sharded PDP answers it by scatter when the two subjects are placed
    on different shards."""
    request = Request.simple("LTA", "weather")
    request.add(Attribute(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string(second)))
    return request
