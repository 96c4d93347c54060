"""Shared builders for the serving-layer tests.

Everything here is loopback-only and time-bounded: tier-1 must never
hang on a socket (`asyncio.wait_for` with :data:`TIMEOUT` wraps every
awaited stage in the tests).
"""

from __future__ import annotations

from repro.core import stream_policy
from repro.framework.server import DataServer
from repro.serving.server import _Connection
from repro.serving.wire import FrameDecoder, encode_message, iter_messages
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


class RecordingTransport:
    """What a connection needs of its transport; keeps every ``write``.
    ``stall`` makes the first write pause writing for good (a peer that
    stopped reading)."""

    def __init__(self, stall=False):
        self.writes = []
        self.stall = stall
        self.connection = None
        self.reading = True

    def write(self, data):
        self.writes.append(data)
        if self.stall and len(self.writes) == 1:
            self.connection.pause_writing()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return False

    def get_extra_info(self, name):
        return None

    def set_write_buffer_limits(self, high):
        pass

    def replies(self):
        """``(seq, reply)`` of every frame written, in wire order."""
        return list(iter_messages(FrameDecoder(), b"".join(self.writes)))


def connected(front, ops, stall=False):
    """One connection of *front* that has just read *ops* in one chunk."""
    transport = RecordingTransport(stall)
    transport.connection = connection = _Connection(front)
    connection.connection_made(transport)
    connection.data_received(
        b"".join(encode_message(seq, op) for seq, op in enumerate(ops))
    )
    return connection, transport


async def drained(connection):
    """Wait for the connection's backlog to be answered."""
    if connection.drainer is not None:
        await connection.drainer
