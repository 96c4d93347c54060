"""The stream engine: registration and continuous execution of queries.

This is the reproduction's StreamBase stand-in.  The engine owns a
:class:`~repro.streams.catalog.StreamCatalog` of input streams, accepts
continuous queries either as :class:`~repro.streams.graph.QueryGraph`
objects or as StreamSQL scripts, runs each registered query continuously
(push-based: every pushed record flows through every attached query),
and exposes query outputs through
:class:`~repro.streams.handles.StreamHandle` URIs.  Ingress is columns:
a pushed list of records becomes one ``Batch``, gathered per field and
coerced per column, and is a row only when someone reads it
(:meth:`StreamEngine.push_batch`).

Queries can be *withdrawn* — the revocation primitive that Section 3.3's
query-graph management relies on when a policy is removed or modified.

There is one execution path: every query is attached to its input
stream's :class:`~repro.streams.plan.StreamPlan`.  The seed semantics
live on as the differential-testing oracle (:mod:`repro.streams.reference`),
reachable only through :meth:`StreamEngine.reference`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import EngineError, UnknownHandleError
from repro.streams.catalog import StreamCatalog
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.plan import SharedQuery, StreamPlan
from repro.streams.schema import Schema
from repro.streams.stream import INGEST_CHUNK, Stream
from repro.streams.tuples import Batch, StreamTuple, _record_ingress


class StreamEngine:
    """A single-host Aurora-model DSMS.

    Queries run on one shared execution plan per input stream
    (:class:`~repro.streams.plan.StreamPlan`): filter conditions
    compiled to closures per schema, pipelines evaluated
    batch-at-a-time, window aggregation recomputed per emission from
    columnar buffers, and queries with identical operator prefixes
    sharing DAG nodes, so a pushed batch
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
        #: ``(gather, convert)`` per input stream, built at first push.
        self._ingress: Dict[int, Tuple[Callable, Callable]] = {}
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
        """Append many records: a list (or tuple) is :meth:`push_batches`
        of that one list, and is ingested atomically — all of it gathered
        or converted before the first append, so a malformed record raises
        with nothing ingested.  Any other iterable is pushed as lists of
        :data:`~repro.streams.stream.INGEST_CHUNK` records (memory stays
        O(chunk) for unbounded generators), so a malformed record raises
        after the chunks before it were ingested.  The outputs are what
        pushing each record individually would emit.
        """
        if not isinstance(records, (list, tuple)):
            records = iter(records)
            chunks = iter(lambda: list(islice(records, INGEST_CHUNK)), [])
            return sum(self.push_batch(stream_name, chunk) for chunk in chunks)
        outcomes = self.push_batches(stream_name, [records])
        if isinstance(outcomes[0], Exception):
            raise outcomes.pop()    # popped: its traceback keeps this frame
        return outcomes[0]

    def push_batches(self, stream_name: str, record_lists: Iterable[Sequence]) -> List:
        """:meth:`push_batch` of each list, in order, with one dispatch for
        the lists gathered as columns (``dict`` s keyed by exactly the
        schema's names: no tuple is built unless a listener or a reader
        asks); any other list goes through ``make_tuple`` per record and
        is dispatched alone, in its place.  Returns per list its count or
        the exception ``push_batch`` would raise, without its traceback
        (which would hold this frame in a cycle).  A refused list changes
        nothing; if a dispatch raises, every list in it gets that error.
        A plan's output does not depend on where its input is cut into
        batches: only a listener at a batch boundary (a tap) can tell.
        """
        stream = self.catalog.get(stream_name)
        ingress = self._ingress.get(id(stream))
        if ingress is None:
            ingress = self._ingress[id(stream)] = _record_ingress(stream.schema)
        gather, convert = ingress
        outcomes: List[Union[int, Exception]] = []
        group, batches = [], []     # gathered lists awaiting one dispatch; their columns

        def dispatch(members, append, rows) -> None:
            try:
                append(stream, rows)
            except Exception as error:
                for index in members:
                    outcomes[index] = error.with_traceback(None)

        for records in record_lists:
            batch = gather(records)
            if batch is not None:
                group.append(len(outcomes))
                outcomes.append(len(records))
                batches.append(batch)
                continue
            try:
                tuples = [convert(record) for record in records]
            except Exception as error:
                outcomes.append(error.with_traceback(None))
                continue
            dispatch(group, _append_columns, batches)
            group, batches = [], []
            outcomes.append(len(tuples))
            dispatch([len(outcomes) - 1], Stream.extend, tuples)
        dispatch(group, _append_columns, batches)
        return outcomes

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
        ``nodes_created`` / ``nodes_shared`` (prefix-merge hits),
        cumulatively, and ``nodes_subsumed``, which always reads 0 (the
        plan shares exact prefixes only; the key stays for its readers).
        """
        return {plan.source.name: plan.stats() for plan in self._plans.values()}

    def __len__(self) -> int:
        return len(self._queries)


def _append_columns(stream: Stream, batches: List[Batch]) -> None:
    """Append the rows of *batches*, gathered lists, in one dispatch."""
    if len(batches) > 1:
        batches = [Batch([list(chain.from_iterable(parts))
                          for parts in zip(*(batch.columns for batch in batches))])]
    for batch in batches:
        stream.append_rows(batch)
