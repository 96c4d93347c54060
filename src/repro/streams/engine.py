"""The stream engine: registration and continuous execution of queries.

This is the reproduction's StreamBase stand-in.  The engine owns a
:class:`~repro.streams.catalog.StreamCatalog` of input streams, accepts
continuous queries either as :class:`~repro.streams.graph.QueryGraph`
objects or as StreamSQL scripts, runs each registered query continuously
(push-based: every appended input tuple flows through every attached
query), and exposes query outputs through
:class:`~repro.streams.handles.StreamHandle` URIs.

Queries can be *withdrawn* — the revocation primitive that Section 3.3's
query-graph management relies on when a policy is removed or modified.

There is one execution path: every query is attached to its input
stream's :class:`~repro.streams.plan.StreamPlan`.  The seed semantics
live on as the differential-testing oracle (:mod:`repro.streams.reference`),
reachable only through :meth:`StreamEngine.reference`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.errors import EngineError, UnknownHandleError
from repro.streams.catalog import StreamCatalog
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.plan import SharedQuery, StreamPlan
from repro.streams.schema import Schema
from repro.streams.stream import Stream
from repro.streams.tuples import StreamTuple, _record_converter


class StreamEngine:
    """A single-host Aurora-model DSMS.

    Queries run on one shared execution plan per input stream
    (:class:`~repro.streams.plan.StreamPlan`): filter conditions
    compiled to closures per schema, pipelines evaluated
    batch-at-a-time, window aggregation recomputed per emission from
    columnar buffers, and queries with identical — or provably
    subsuming — operator prefixes sharing DAG nodes, so a pushed batch
    is filtered/windowed once per distinct prefix instead of once per
    query.
    """

    def __init__(self, host: str = "dsms.local"):
        self.host = host
        self.catalog = StreamCatalog()
        self._queries: Dict[str, SharedQuery] = {}
        #: One plan per input stream (keyed by stream identity), created
        #: lazily at first registration.
        self._plans: Dict[int, StreamPlan] = {}
        #: Record → tuple converter per input stream, built at first push.
        self._converters: Dict[int, Callable[[Any], StreamTuple]] = {}
        #: Count of queries ever registered (for monitoring/benchmarks).
        self.total_registered = 0
        #: Count of queries withdrawn; ``total_registered -
        #: total_withdrawn == active_query_count`` at all times.
        self.total_withdrawn = 0

    @classmethod
    def reference(cls, host: str = "dsms.local") -> "StreamEngine":
        """The oracle: an engine with the seed execution semantics
        (:mod:`repro.streams.reference`), for differential testing."""
        from repro.streams.reference import ReferenceEngine

        return ReferenceEngine(host)

    # -- input streams ---------------------------------------------------------

    def register_input_stream(self, name: str, schema: Schema) -> Stream:
        """Declare an input stream; returns the backing :class:`Stream`."""
        return self.catalog.register(name, schema)

    def push(self, stream_name: str, record: Union[StreamTuple, Mapping[str, Any]]) -> None:
        """Append one record (tuple or mapping) to an input stream.

        Every query registered on the stream processes the record
        immediately — the continuous-query semantics of the Aurora model.
        """
        self.push_batch(stream_name, (record,))

    def push_batch(
        self, stream_name: str, records: Iterable[Union[StreamTuple, Mapping[str, Any]]]
    ) -> int:
        """Append many records with one catalog lookup and one dispatch
        per :data:`~repro.streams.stream.INGEST_CHUNK` records.

        Each dispatch hands the whole chunk to every query as one batch
        (the plan runs it through each node as columns); the outputs are
        what pushing each record individually would emit, in the same
        order, while the per-push overhead — catalog lookup, listener
        snapshot, schema check, buffer trim — is paid once per chunk.

        A list (or tuple) is ingested atomically: every record is
        converted before the first is appended, so a malformed one raises
        with nothing ingested.  Any other iterable is converted chunk by
        chunk (memory stays O(chunk) for unbounded generators), so a
        malformed record raises after the chunks before it were ingested.
        """
        stream = self.catalog.get(stream_name)
        convert = self._converters.get(id(stream))
        if convert is None:
            convert = self._converters[id(stream)] = _record_converter(stream.schema)
        if isinstance(records, (list, tuple)):
            return stream.extend([convert(record) for record in records])
        return stream.extend(map(convert, records))

    def push_many(
        self, stream_name: str, records: Iterable[Union[StreamTuple, Mapping[str, Any]]]
    ) -> int:
        return self.push_batch(stream_name, records)

    # -- continuous queries ------------------------------------------------------

    def register_query(
        self, graph: QueryGraph, handle: Optional[StreamHandle] = None
    ) -> StreamHandle:
        """Install a continuous query; returns its stream handle.

        The graph is validated against the source stream's schema before
        anything is installed, so an invalid graph changes no engine state.
        """
        source = self.catalog.get(graph.source)
        if handle is None:
            handle = StreamHandle.allocate(self.host)
        if handle.uri in self._queries:
            raise EngineError(f"handle {handle.uri!r} is already in use")
        self._queries[handle.uri] = self._install(source, graph, handle)
        self.total_registered += 1
        return handle

    def _install(
        self, source: Stream, graph: QueryGraph, handle: StreamHandle
    ) -> SharedQuery:
        """Start *graph* running on *source*: attach it to the stream's
        plan, sharing operator nodes with same-prefix queries."""
        plan = self._plans.get(id(source))
        if plan is None:
            plan = self._plans[id(source)] = StreamPlan(source)
        return plan.attach(graph, handle)

    def register_streamsql(self, script: str) -> StreamHandle:
        """Parse a StreamSQL script and register the resulting query.

        ``CREATE INPUT STREAM`` statements in the script declare the input
        stream if it is not yet in the catalog (and are checked for schema
        agreement when it is).
        """
        from repro.streams.streamsql.parser import parse_streamsql

        parsed = parse_streamsql(script)
        if parsed.input_schema is not None:
            name = parsed.graph.source
            if name in self.catalog:
                existing = self.catalog.schema(name)
                if existing != parsed.input_schema:
                    raise EngineError(
                        f"script redeclares stream {name!r} with a different schema"
                    )
            else:
                self.register_input_stream(name, parsed.input_schema)
        return self.register_query(parsed.graph)

    def lookup(self, handle: Union[StreamHandle, str]) -> SharedQuery:
        uri = StreamHandle.uri_of(handle)
        query = self._queries.get(uri)
        if query is None or not query.active:
            raise UnknownHandleError(uri)
        return query

    def read(
        self, handle: Union[StreamHandle, str], limit: Optional[int] = None
    ) -> List[StreamTuple]:
        """Read the retained output of a query (non-consuming snapshot);
        with *limit*, its newest *limit* tuples."""
        snapshot = self.lookup(handle).output.snapshot()
        if limit is None:
            return snapshot
        if limit < 0:
            raise EngineError(f"limit must not be negative, got {limit}")
        return snapshot[max(0, len(snapshot) - limit) :]

    def subscribe(self, handle: Union[StreamHandle, str], from_start: bool = True):
        """Subscribe a pull cursor to a query's output stream."""
        return self.lookup(handle).output.subscribe(from_start=from_start)

    def withdraw(self, handle: Union[StreamHandle, str]) -> None:
        """Remove a continuous query (revocation).

        Withdrawing an unknown or already-withdrawn handle raises
        :class:`UnknownHandleError` so revocation failures are loud.
        """
        uri = StreamHandle.uri_of(handle)
        query = self._queries.get(uri)
        if query is None:
            raise UnknownHandleError(uri)
        query.withdraw()
        del self._queries[uri]
        self.total_withdrawn += 1

    def active_queries(self) -> List[SharedQuery]:
        return [q for q in self._queries.values() if q.active]

    @property
    def active_query_count(self) -> int:
        """Live queries right now (``total_registered - total_withdrawn``)."""
        return len(self._queries)

    def plan_stats(self) -> Dict[str, Dict[str, int]]:
        """Plan shape per input stream.

        Each entry reports ``queries`` (live sinks), ``live_nodes``
        (operator nodes currently in the DAG — the churn harness asserts
        this returns to zero once every handle withdraws),
        ``nodes_created`` / ``nodes_shared`` (prefix-merge hits) /
        ``nodes_subsumed`` (subsumption-fed filters), cumulatively.
        """
        return {plan.source.name: plan.stats() for plan in self._plans.values()}

    def __len__(self) -> int:
        return len(self._queries)
