"""Tests for streams and subscriptions."""

import pytest

from repro.errors import StreamError
from repro.streams.schema import Schema
from repro.streams.stream import INGEST_CHUNK, Stream
from repro.streams.tuples import make_tuple

SCHEMA = Schema("s", [("x", "int")])


def tuples(*values):
    return [make_tuple(SCHEMA, {"x": v}) for v in values]


class TestAppend:
    def test_append_and_snapshot(self):
        stream = Stream("s", SCHEMA)
        stream.extend(tuples(1, 2, 3))
        assert [t["x"] for t in stream.snapshot()] == [1, 2, 3]
        assert stream.total_appended == 3

    def test_schema_mismatch(self):
        other = Schema("o", [("y", "int")])
        stream = Stream("s", SCHEMA)
        with pytest.raises(StreamError):
            stream.append(make_tuple(other, {"y": 1}))

    def test_closed_stream_rejects(self):
        stream = Stream("s", SCHEMA)
        stream.close()
        with pytest.raises(StreamError):
            stream.extend(tuples(1))

    def test_listeners_invoked_per_tuple(self):
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_listener(lambda t: seen.append(t["x"]))
        stream.extend(tuples(1, 2))
        assert seen == [1, 2]

    def test_remove_listener(self):
        stream = Stream("s", SCHEMA)
        seen = []
        callback = lambda t: seen.append(t["x"])
        stream.add_listener(callback)
        stream.remove_listener(callback)
        stream.extend(tuples(1))
        assert seen == []


class TestAppendBatch:
    def test_returns_count_and_appends_in_order(self):
        stream = Stream("s", SCHEMA)
        assert stream.append_batch(tuples(1, 2, 3)) == 3
        assert [t["x"] for t in stream.snapshot()] == [1, 2, 3]
        assert stream.total_appended == 3

    def test_empty_batch(self):
        stream = Stream("s", SCHEMA)
        assert stream.append_batch([]) == 0

    def test_listener_interleaving_matches_single_appends(self):
        """Each tuple reaches every listener before the next tuple does,
        exactly like N single appends."""
        calls = []
        stream = Stream("s", SCHEMA)
        stream.add_listener(lambda t: calls.append(("a", t["x"])))
        stream.add_listener(lambda t: calls.append(("b", t["x"])))
        stream.append_batch(tuples(1, 2))
        assert calls == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]

    def test_atomic_validation(self):
        """A batch with one bad tuple changes nothing."""
        other = Schema("o", [("y", "int")])
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_listener(lambda t: seen.append(t["x"]))
        batch = tuples(1, 2) + [make_tuple(other, {"y": 9})]
        with pytest.raises(StreamError):
            stream.append_batch(batch)
        assert stream.total_appended == 0
        assert seen == []

    def test_closed_stream_rejects_batch(self):
        stream = Stream("s", SCHEMA)
        stream.close()
        with pytest.raises(StreamError):
            stream.append_batch(tuples(1))

    def test_overflow_trimmed_once_at_end(self):
        stream = Stream("s", SCHEMA, max_buffer=3)
        stream.append_batch(tuples(1, 2, 3, 4, 5))
        assert [t["x"] for t in stream.snapshot()] == [3, 4, 5]
        assert stream.total_appended == 5


class TestSingleAppendIsASingletonBatch:
    """``append(t)`` and ``append_batch([t])`` are one dispatch
    implementation: listeners are snapshotted when dispatch starts."""

    @staticmethod
    def dispatch(stream, how, tup):
        if how == "append":
            stream.append(tup)
        else:
            stream.append_batch([tup])

    @pytest.mark.parametrize("how", ["append", "append_batch"])
    def test_batch_listener_added_during_dispatch_misses_the_tuple(self, how):
        # Regression: append() used to snapshot batch listeners *after*
        # the per-tuple phase, so the late listener saw the tuple under
        # append() but not under append_batch([t]).
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_listener(lambda tup: stream.add_batch_listener(seen.extend))
        (first,) = tuples(1)
        self.dispatch(stream, how, first)
        assert seen == []
        (second,) = tuples(2)
        self.dispatch(stream, how, second)
        assert seen == [second]

    @pytest.mark.parametrize("how", ["append", "append_batch"])
    def test_batch_listener_removed_during_dispatch_misses_the_tuple(self, how):
        stream = Stream("s", SCHEMA)
        seen = []
        listener = seen.extend
        stream.add_batch_listener(listener)
        stream.add_listener(lambda tup: stream.remove_batch_listener(listener))
        self.dispatch(stream, how, tuples(1)[0])
        assert seen == []

    def test_extend_chunks_and_counts(self):
        stream = Stream("s", SCHEMA)
        batches = []
        stream.add_batch_listener(lambda batch: batches.append(len(batch)))
        assert stream.extend(iter(tuples(*range(INGEST_CHUNK + 3)))) == INGEST_CHUNK + 3
        assert batches == [INGEST_CHUNK, 3]


class TestBoundedBuffer:
    def test_tail_retained(self):
        stream = Stream("s", SCHEMA, max_buffer=3)
        stream.extend(tuples(1, 2, 3, 4, 5))
        assert [t["x"] for t in stream.snapshot()] == [3, 4, 5]
        assert stream.total_appended == 5

    def test_fallen_behind_subscription_raises(self):
        stream = Stream("s", SCHEMA, max_buffer=2)
        subscription = stream.subscribe()
        stream.extend(tuples(1, 2, 3, 4))
        with pytest.raises(StreamError):
            subscription.poll()

    def test_bad_buffer_size(self):
        with pytest.raises(StreamError):
            Stream("s", SCHEMA, max_buffer=0)


class TestSubscription:
    def test_from_start(self):
        stream = Stream("s", SCHEMA)
        stream.extend(tuples(1, 2))
        subscription = stream.subscribe(from_start=True)
        assert [t["x"] for t in subscription.drain()] == [1, 2]

    def test_from_now(self):
        stream = Stream("s", SCHEMA)
        stream.extend(tuples(1, 2))
        subscription = stream.subscribe(from_start=False)
        stream.extend(tuples(3))
        assert [t["x"] for t in subscription.drain()] == [3]

    def test_poll_limit_and_pending(self):
        stream = Stream("s", SCHEMA)
        stream.extend(tuples(1, 2, 3))
        subscription = stream.subscribe()
        assert subscription.pending == 3
        assert [t["x"] for t in subscription.poll(2)] == [1, 2]
        assert subscription.pending == 1

    def test_independent_positions(self):
        stream = Stream("s", SCHEMA)
        first = stream.subscribe()
        second = stream.subscribe()
        stream.extend(tuples(1, 2))
        first.drain()
        assert second.pending == 2
