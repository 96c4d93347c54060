"""Streams and subscriptions.

A :class:`Stream` is an append-only sequence of tuples with one schema.
Consumers attach :class:`StreamSubscription` cursors; each subscription
tracks its own read position so multiple independent readers (different
registered queries, the reconstruction-attack demo, tests) can drain the
same stream without interfering.

Push consumers are *batch listeners*: one callback per appended batch,
in the order the listeners were added.  The batch is the only unit of
dispatch — a registered query runs one pipeline invocation per batch,
and a tap (control hook, test, third party) is a batch listener too.

Streams keep a bounded in-memory tail (``max_buffer``) because real data
streams are unbounded; a subscription that falls behind the retained tail
raises rather than silently skipping data.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.errors import StreamError
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

BatchListener = Callable[[Sequence[StreamTuple]], None]

#: Tuples per dispatch when ingesting from an iterable: large enough to
#: amortize the per-append overhead, small enough that an unbounded
#: generator never materializes in memory.
INGEST_CHUNK = 4096


class _InflightDispatch:
    """One ``append_batch`` dispatch in flight: who must be handed
    nothing (more) of its batch, and the dispatch it is nested in."""

    __slots__ = ("absent", "previous")

    def __init__(self, previous: Optional["_InflightDispatch"]):
        #: Listeners removed since the dispatch began — and, written by
        #: :class:`~repro.streams.plan.StreamPlan` (many queries behind
        #: one listener), the queries and nodes registered since.
        self.absent: set = set()
        #: Enclosing dispatch when appends nest (a listener appending to
        #: its own stream).
        self.previous = previous


class Stream:
    """An append-only, schema-typed sequence of tuples.

    A tap is a batch listener, and a tap that withdraws a query takes
    effect at the batch boundary.  Three rules make re-entrant use
    predictable; the shared plan and the oracle give every *query* the
    same three:

    - a listener added while a dispatch is in flight misses every
      in-flight batch, nested ones included;
    - a listener removed before its turn receives nothing of that batch;
    - ``append(t)`` *is* ``append_batch([t])``.
    """

    def __init__(self, name: str, schema: Schema, max_buffer: int = 1_000_000):
        if max_buffer <= 0:
            raise StreamError("max_buffer must be positive")
        self.name = name
        self.schema = schema
        self.max_buffer = max_buffer
        self._buffer: List[StreamTuple] = []  # guarded by: owner
        #: Index (in the unbounded logical stream) of ``_buffer[0]``.
        self._base = 0  # guarded by: owner
        self._batch_listeners: List[BatchListener] = []  # guarded by: owner
        self._inflight: Optional[_InflightDispatch] = None  # guarded by: owner
        self._closed = False  # guarded by: owner

    @property
    def total_appended(self) -> int:
        """Number of tuples ever appended (the logical stream length)."""
        return self._base + len(self._buffer)

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, tup: StreamTuple) -> None:
        """Append one tuple: exactly ``append_batch([tup])``."""
        self.append_batch([tup])

    def append_batch(self, tuples: Iterable[StreamTuple]) -> int:
        """Append many tuples in one dispatch; returns the count.

        Every listener registered when the dispatch starts receives the
        whole batch in **one** call, which is what lets a registered
        query run one pipeline invocation per batch.  The per-append
        overhead (closed check, schema validation, listener snapshot,
        overflow trim) is paid once per batch.  Deliberate differences
        from N single appends:

        - validation is atomic: every tuple's schema is checked before
          any is appended, so a bad batch changes nothing;
        - the buffer is trimmed to ``max_buffer`` once at the end, so it
          may transiently exceed the bound while the batch is in flight.

        Listeners must treat the batch list as read-only.
        """
        batch = tuples if isinstance(tuples, list) else list(tuples)
        if not batch:
            return 0
        if self._closed:
            raise StreamError(f"stream {self.name!r} is closed")
        schema = self.schema
        for tup in batch:
            if tup._schema is not schema and tup._schema != schema:
                raise StreamError(
                    f"tuple schema {tup.schema.name!r} does not match stream "
                    f"{self.name!r} schema {self.schema.name!r}"
                )
        self._buffer.extend(batch)
        previous = self._inflight
        inflight = self._inflight = _InflightDispatch(previous)
        try:
            for listener in list(self._batch_listeners):
                if listener not in inflight.absent:
                    listener(batch)
        finally:
            self._inflight = previous
        if len(self._buffer) > self.max_buffer:
            overflow = len(self._buffer) - self.max_buffer
            del self._buffer[:overflow]
            self._base += overflow
        return len(batch)

    def extend(self, tuples: Iterable[StreamTuple]) -> int:
        """Append from an iterable, one dispatch per :data:`INGEST_CHUNK`
        tuples, so memory stays O(chunk) even for unbounded generators;
        returns the count."""
        count = 0
        chunk: List[StreamTuple] = []
        for tup in tuples:
            chunk.append(tup)
            if len(chunk) >= INGEST_CHUNK:
                count += self.append_batch(chunk)
                chunk = []
        if chunk:
            count += self.append_batch(chunk)
        return count

    def close(self) -> None:
        """Mark the stream complete; further appends raise."""
        self._closed = True

    def add_batch_listener(self, callback: BatchListener) -> None:
        """Register a push callback invoked once per appended *batch*.

        Single :meth:`append` calls arrive as length-1 batches.  The
        callback must not mutate the list it is handed — the same list
        object is shared across listeners (and may be the appender's).
        """
        self._batch_listeners.append(callback)

    def remove_batch_listener(self, callback: BatchListener) -> None:
        """Unregister a batch listener; unknown listeners are ignored.

        Removed from inside a dispatch, before its turn, the listener
        receives nothing of the batch (or of the batches, when appends
        nest) in flight.
        """
        try:
            self._batch_listeners.remove(callback)
        except ValueError:
            pass
        self._miss_inflight(callback)

    def _miss_inflight(self, consumer) -> None:
        """*consumer* is handed nothing (more) of any batch in flight."""
        inflight = self._inflight
        while inflight is not None:
            inflight.absent.add(consumer)
            inflight = inflight.previous

    def subscribe(self, from_start: bool = True) -> "StreamSubscription":
        """Create a pull cursor over this stream.

        With ``from_start=False`` the cursor begins at the current end of
        the stream and only sees tuples appended afterwards — matching how
        a newly-registered continuous query sees a live feed.
        """
        position = self._base if from_start else self.total_appended
        return StreamSubscription(self, position)

    def snapshot(self) -> List[StreamTuple]:
        """Return a copy of the currently retained tail."""
        return list(self._buffer)

    def _read_from(self, position: int) -> List[StreamTuple]:
        if position < self._base:
            raise StreamError(
                f"subscription on {self.name!r} fell behind the retained "
                f"buffer (wanted {position}, earliest retained {self._base})"
            )
        return self._buffer[position - self._base :]

    def __repr__(self) -> str:
        return f"Stream({self.name!r}, schema={self.schema.name!r}, n={self.total_appended})"


class StreamSubscription:
    """A pull cursor over a :class:`Stream` with an independent position."""

    def __init__(self, stream: Stream, position: int):
        self._stream = stream
        self._position = position  # guarded by: owner

    @property
    def stream(self) -> Stream:
        return self._stream

    @property
    def position(self) -> int:
        return self._position

    @property
    def pending(self) -> int:
        """Number of appended-but-unread tuples."""
        return self._stream.total_appended - self._position

    def poll(self, limit: Optional[int] = None) -> List[StreamTuple]:
        """Return (and consume) up to *limit* unread tuples."""
        if limit is not None and limit < 0:
            raise StreamError(f"limit must not be negative, got {limit}")
        available = self._stream._read_from(self._position)
        if limit is not None:
            available = available[:limit]
        self._position += len(available)
        return available

    def drain(self) -> List[StreamTuple]:
        """Return (and consume) all unread tuples."""
        return self.poll()
