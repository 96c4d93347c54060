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

    def test_listeners_get_each_batch_once_in_the_order_they_were_added(self):
        stream = Stream("s", SCHEMA)
        calls = []
        stream.add_batch_listener(lambda b: calls.append(("a", [t["x"] for t in b])))
        stream.add_batch_listener(lambda b: calls.append(("b", [t["x"] for t in b])))
        stream.append_batch(tuples(1, 2))
        stream.append(tuples(3)[0])
        assert calls == [("a", [1, 2]), ("b", [1, 2]), ("a", [3]), ("b", [3])]

    def test_remove_batch_listener(self):
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_batch_listener(seen.extend)
        stream.remove_batch_listener(seen.extend)
        stream.remove_batch_listener(seen.extend)  # unknown: ignored
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

    def test_atomic_validation(self):
        """A batch with one bad tuple changes nothing."""
        other = Schema("o", [("y", "int")])
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_batch_listener(seen.extend)
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


def xs(batch):
    return [tup["x"] for tup in batch]


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
        stream = Stream("s", SCHEMA)
        seen = []
        added = []

        def add_once(batch):
            if not added:
                added.append(True)
                stream.add_batch_listener(seen.extend)

        stream.add_batch_listener(add_once)
        first, second = tuples(1, 2)
        self.dispatch(stream, how, first)
        assert seen == []
        self.dispatch(stream, how, second)
        assert seen == [second]

    @pytest.mark.parametrize("how", ["append", "append_batch"])
    def test_batch_listener_removed_during_dispatch_misses_the_tuple(self, how):
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_batch_listener(lambda batch: stream.remove_batch_listener(seen.extend))
        stream.add_batch_listener(seen.extend)
        self.dispatch(stream, how, tuples(1)[0])
        assert seen == []

    def test_extend_chunks_and_counts(self):
        stream = Stream("s", SCHEMA)
        batches = []
        stream.add_batch_listener(lambda batch: batches.append(len(batch)))
        assert stream.extend(iter(tuples(*range(INGEST_CHUNK + 3)))) == INGEST_CHUNK + 3
        assert batches == [INGEST_CHUNK, 3]


class TestListenersChangedFromInsideADispatch:
    """The re-entrancy rules of ``Stream`` past the two cases above."""

    def test_a_listener_removed_after_its_turn_has_had_the_batch(self):
        stream = Stream("s", SCHEMA)
        seen = []
        stream.add_batch_listener(seen.extend)
        stream.add_batch_listener(lambda batch: stream.remove_batch_listener(seen.extend))
        stream.append_batch(tuples(1, 2))
        stream.append_batch(tuples(3))
        assert xs(seen) == [1, 2]

    def test_removed_and_added_again_before_its_turn_is_a_new_listener(self):
        stream = Stream("s", SCHEMA)
        seen = []

        def cycle(batch):
            stream.remove_batch_listener(seen.extend)
            stream.add_batch_listener(seen.extend)

        stream.add_batch_listener(cycle)
        stream.add_batch_listener(seen.extend)
        stream.append_batch(tuples(1))
        assert seen == []
        stream.remove_batch_listener(cycle)
        stream.append_batch(tuples(2))
        assert xs(seen) == [2]

    def test_nested_appends_count_as_in_flight_too(self):
        """A listener appending to its own stream nests a dispatch; a
        listener added inside the inner one misses both batches, and one
        removed inside it gets nothing of the outer batch either."""
        stream = Stream("s", SCHEMA)
        late, victim = [], []

        def nest(batch):
            if xs(batch) == [1]:
                stream.append_batch(tuples(2))
            else:
                stream.add_batch_listener(late.extend)
                stream.remove_batch_listener(victim.extend)

        stream.add_batch_listener(nest)
        stream.add_batch_listener(victim.extend)
        stream.append_batch(tuples(1))
        assert late == [] and victim == []
        assert xs(stream.snapshot()) == [1, 2]
        stream.remove_batch_listener(nest)
        stream.append_batch(tuples(3))
        assert xs(late) == [3] and victim == []

    def test_a_raising_listener_leaves_no_dispatch_in_flight(self):
        stream = Stream("s", SCHEMA)

        def boom(batch):
            raise RuntimeError("listener failed")

        stream.add_batch_listener(boom)
        with pytest.raises(RuntimeError):
            stream.append_batch(tuples(1))
        assert stream._inflight is None
        assert stream.total_appended == 1


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

    def test_poll_limit_zero_and_negative(self):
        stream = Stream("s", SCHEMA)
        stream.extend(tuples(1, 2, 3))
        subscription = stream.subscribe()
        assert subscription.poll(0) == []
        with pytest.raises(StreamError):
            subscription.poll(-1)  # used to return all but the newest
        assert subscription.pending == 3

    def test_independent_positions(self):
        stream = Stream("s", SCHEMA)
        first = stream.subscribe()
        second = stream.subscribe()
        stream.extend(tuples(1, 2))
        first.drain()
        assert second.pending == 2
