"""Streams and subscriptions.

A :class:`Stream` is an append-only sequence of tuples with one schema.
Consumers attach :class:`StreamSubscription` cursors; each subscription
tracks its own read position so multiple independent readers (different
registered queries, the reconstruction-attack demo, tests) can drain the
same stream without interfering.

Push consumers come in two flavours: per-tuple listeners (one callback
per appended tuple — control hooks, tests, third-party taps) and *batch
listeners* (one callback per appended batch — the registered-query fast
path, which runs a whole pipeline invocation per batch instead of per
tuple).  Dispatch order within an append is: per-tuple listeners first,
tuple by tuple, then batch listeners, batch by batch.

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
    """State of one append_batch dispatch, for mid-batch listener removal.

    ``progress`` tracks how many tuples of the batch have been delivered
    to per-tuple listeners so far.  When a batch listener is removed
    during the per-tuple phase (the withdraw-mid-batch revocation path:
    a control listener withdraws a query), it is synchronously handed
    ``batch[:progress]`` — exactly the tuples it would have processed
    had dispatch been per-tuple — and is skipped by the end-of-batch
    sweep (``done``).  Once the batch phase starts (``batch_phase``), a
    removed listener gets nothing further: under per-tuple dispatch its
    guard would have dropped every tuple after the withdrawal, and the
    withdrawing callback observes tuples no earlier than the victim's
    own dispatch, so dropping the whole batch keeps ``append(t)`` and
    ``append_batch([t])`` output-identical.
    """

    __slots__ = ("batch", "snapshot", "done", "progress", "batch_phase", "previous")

    def __init__(
        self,
        batch: List[StreamTuple],
        snapshot: set,
        previous: Optional["_InflightDispatch"] = None,
    ):
        self.batch = batch
        self.snapshot = snapshot
        self.done: set = set()
        self.progress = 0
        self.batch_phase = False
        #: Enclosing dispatch when appends nest (a listener appending to
        #: its own stream).  The chain lets the shared execution plan
        #: defer *every* in-flight batch for queries registered
        #: mid-dispatch, not just the innermost.
        self.previous = previous


class Stream:
    """An append-only, schema-typed sequence of tuples."""

    def __init__(self, name: str, schema: Schema, max_buffer: int = 1_000_000):
        if max_buffer <= 0:
            raise StreamError("max_buffer must be positive")
        self.name = name
        self.schema = schema
        self.max_buffer = max_buffer
        self._buffer: List[StreamTuple] = []  # guarded by: owner
        #: Index (in the unbounded logical stream) of ``_buffer[0]``.
        self._base = 0  # guarded by: owner
        self._listeners: List[Callable[[StreamTuple], None]] = []  # guarded by: owner
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
        """Append one tuple: exactly ``append_batch([tup])`` — one
        dispatch implementation, so listeners are snapshotted at dispatch
        start either way and a batch listener added while *tup* is being
        dispatched (a query registered by a control listener) misses it."""
        self.append_batch([tup])

    def append_batch(self, tuples: Iterable[StreamTuple]) -> int:
        """Append many tuples with amortized dispatch; returns the count.

        Per-tuple listeners observe semantics identical to N single
        :meth:`append` calls — tuples delivered one at a time, in order.
        Batch listeners receive the whole batch in **one** call, after
        the per-tuple phase, which is what lets a registered query run
        one pipeline invocation per batch.  The per-append overhead
        (closed check, schema validation, listener snapshot, overflow
        trim) is paid once per batch.  Deliberate differences from N
        single appends:

        - validation is atomic: every tuple's schema is checked before
          any is appended, so a bad batch changes nothing;
        - the buffer is trimmed to ``max_buffer`` once at the end, so it
          may transiently exceed the bound while the batch is in flight.

        A batch listener removed *mid-batch* (a query withdrawn by a
        per-tuple control listener — the revocation path) is
        synchronously delivered the prefix of the batch already
        dispatched to per-tuple listeners, so its output matches the
        per-tuple path exactly; see :meth:`remove_batch_listener`.
        Listeners must treat the batch list as read-only.
        """
        batch = tuples if isinstance(tuples, list) else list(tuples)
        if not batch:
            return 0
        if self._closed:
            raise StreamError(f"stream {self.name!r} is closed")
        schema = self.schema
        for tup in batch:
            if tup.schema is not schema and tup.schema != schema:
                raise StreamError(
                    f"tuple schema {tup.schema.name!r} does not match stream "
                    f"{self.name!r} schema {self.schema.name!r}"
                )
        tuple_listeners = list(self._listeners)
        batch_listeners = list(self._batch_listeners)
        previous = self._inflight
        inflight = _InflightDispatch(batch, set(batch_listeners), previous)
        self._inflight = inflight
        try:
            if tuple_listeners:
                buffer_append = self._buffer.append
                for index, tup in enumerate(batch):
                    inflight.progress = index
                    buffer_append(tup)
                    for listener in tuple_listeners:
                        listener(tup)
            else:
                self._buffer.extend(batch)
            inflight.batch_phase = True
            for listener in batch_listeners:
                if listener in inflight.done:
                    continue  # already flushed by a mid-batch removal
                inflight.done.add(listener)
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

    def add_listener(self, callback: Callable[[StreamTuple], None]) -> None:
        """Register a push callback invoked once per appended tuple."""
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[StreamTuple], None]) -> None:
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def add_batch_listener(self, callback: BatchListener) -> None:
        """Register a push callback invoked once per appended *batch*.

        Single :meth:`append` calls arrive as length-1 batches.  The
        callback must not mutate the list it is handed — the same list
        object is shared across listeners (and may be the appender's).
        """
        self._batch_listeners.append(callback)

    def remove_batch_listener(self, callback: BatchListener) -> None:
        """Unregister a batch listener; unknown listeners are ignored.

        When called while an :meth:`append_batch` dispatch is in its
        per-tuple phase — a query being withdrawn by a per-tuple control
        listener's callback — the listener is first delivered,
        synchronously, the prefix of the in-flight batch already
        dispatched to per-tuple listeners.  That makes
        withdraw-mid-batch output-identical to per-tuple dispatch,
        where the withdrawn query would have processed exactly those
        tuples before its guard engaged.  A listener removed during the
        batch phase (withdrawn from another batch listener's dispatch)
        receives nothing further — the per-tuple equivalent of its
        guard engaging before its turn — and is skipped by the
        end-of-batch sweep.
        """
        try:
            self._batch_listeners.remove(callback)
        except ValueError:
            pass
        inflight = self._inflight
        if (
            inflight is not None
            and callback in inflight.snapshot
            and callback not in inflight.done
        ):
            inflight.done.add(callback)
            if not inflight.batch_phase:
                prefix = inflight.batch[: inflight.progress]
                if prefix:
                    callback(prefix)

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
        available = self._stream._read_from(self._position)
        if limit is not None:
            available = available[:limit]
        self._position += len(available)
        return available

    def drain(self) -> List[StreamTuple]:
        """Return (and consume) all unread tuples."""
        return self.poll()
