"""Aurora-model data stream management substrate.

This package is the reproduction's stand-in for the commercial StreamBase
engine used by the paper.  It implements the three Aurora boxes the paper
relies on (filter, map, window-based aggregation), query graphs, a
StreamSQL dialect matching the paper's Figure 4(b), and an engine that
registers continuous queries and hands out stream-handle URIs.

Typical usage::

    from repro.streams import Schema, Field, StreamEngine, QueryGraph
    from repro.streams.operators import FilterOperator

    engine = StreamEngine()
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    graph = QueryGraph("weather")
    graph.append(FilterOperator("rainrate > 5"))
    handle = engine.register_query(graph)
    engine.push("weather", tuples)
    results = engine.read(handle)
"""

from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple, make_tuple
from repro.streams.stream import Stream, StreamSubscription
from repro.streams.graph import QueryGraph
from repro.streams.engine import StreamEngine
from repro.streams.catalog import StreamCatalog
from repro.streams.handles import StreamHandle

__all__ = [
    "DataType",
    "Field",
    "Schema",
    "StreamTuple",
    "make_tuple",
    "Stream",
    "StreamSubscription",
    "QueryGraph",
    "StreamEngine",
    "StreamCatalog",
    "StreamHandle",
]
