"""Properties of :class:`repro.obs.Histogram` and the recorder over it.

Exactness: ``count``, ``sum``, ``min`` and ``max`` equal
:func:`repro.framework.metrics.summarize`'s on any sample (the samples
are dyadic, so a float sum is exact in any order).  Resolution: p50 /
p90 / p99 lie within one bucket's relative width of ``summarize``'s.
Mergeability: ``a.merge(b)`` is ``a`` having recorded ``b``'s samples.
Fixed memory: recording a million samples allocates nothing that
stays, and a report costs the same at a thousand samples as at a
million.  ``FUZZ_LONG=1`` raises the example budget, ``FUZZ_SEED``
pins the seed (tier-1 runs seed 0).
"""

import os
import random
import time
import tracemalloc

import pytest
from hypothesis import given, note, seed, settings, strategies as st

from repro.framework.metrics import percentile, summarize
from repro.obs import BOUNDS, HIGHEST, LOWEST, N_BUCKETS, SUB_BUCKETS, Histogram
from repro.serving.stats import LatencyRecorder

LONG = bool(os.environ.get("FUZZ_LONG"))
SEED = int(os.environ.get("FUZZ_SEED") or (random.SystemRandom().randrange(2**31) if LONG else 0))
SETTINGS = dict(max_examples=2000 if LONG else 150, deadline=None)

#: Seconds that are multiples of 2^-30 between about 1 ns and 16 s:
#: float sums of them are exact, so ``sum`` can be compared with ``==``.
dyadic = st.integers(1, 2**34).map(lambda k: k * 2.0**-30)
#: Relative width of the widest bucket (the first of each octave).
WIDTH = 1 / SUB_BUCKETS


def histogram_of(values):
    histogram = Histogram()
    for value in values:
        histogram.record(value)
    return histogram


class TestAgainstSummarize:
    @seed(SEED)
    @settings(**SETTINGS)
    @given(st.lists(dyadic, min_size=1, max_size=400))
    def test_count_sum_min_max_are_exact(self, values):
        note(f"FUZZ_SEED={SEED}")
        histogram = histogram_of(values)
        exact = summarize(values)
        assert histogram.count == exact.count == len(values)
        assert histogram.sum == sum(values)
        assert histogram.sum / histogram.count == exact.mean
        assert (histogram.min, histogram.max) == (exact.minimum, exact.maximum)

    @seed(SEED)
    @settings(**SETTINGS)
    @given(st.lists(st.floats(LOWEST, HIGHEST, exclude_max=True), min_size=1, max_size=400))
    def test_percentiles_are_within_one_bucket_width(self, values):
        note(f"FUZZ_SEED={SEED}")
        assert WIDTH <= 0.03
        exact = summarize(values)
        histogram = histogram_of(values)
        p50, p90, p99 = (percentile(histogram, q) for q in (0.50, 0.90, 0.99))
        for got, want in ((p50, exact.p50), (p90, exact.p90), (p99, exact.p99)):
            assert abs(got - want) <= WIDTH * want

    def test_values_out_of_range_keep_exact_extremes(self):
        values = [0.0, LOWEST / 4, 1e-3, HIGHEST * 2]
        histogram = histogram_of(values)
        assert histogram.counts[0] == 2 and histogram.counts[N_BUCKETS - 1] == 1
        assert (histogram[0], histogram[-1], len(histogram)) == (0.0, HIGHEST * 2, 4)
        assert [percentile(histogram, q) for q in (0.0, 1.0)] == [0.0, HIGHEST * 2]
        assert histogram.count == 4

    def test_a_bucket_holds_its_lower_bound(self):
        histogram = Histogram()
        for index in (1, 700, len(BOUNDS) - 1):
            histogram.record(BOUNDS[index - 1])
            histogram.record(BOUNDS[index] * (1 - 2**-52))
            assert histogram.counts[index] == 2

    def test_reading_past_either_end_raises(self):
        histogram = histogram_of([1e-3, 2e-3])
        assert list(histogram) == [1e-3, 2e-3]
        for rank in (2, -3):
            with pytest.raises(IndexError):
                histogram[rank]

    def test_an_empty_histogram_reads_zero(self):
        assert percentile(Histogram(), 0.5) == 0.0
        assert LatencyRecorder().summary("none") == summarize([])


class TestMerge:
    @seed(SEED)
    @settings(**SETTINGS)
    @given(st.lists(dyadic, max_size=200), st.lists(dyadic, max_size=200))
    def test_merge_equals_recording_the_union(self, first, second):
        note(f"FUZZ_SEED={SEED}")
        merged = histogram_of(first).merge(histogram_of(second))
        union = histogram_of(first + second)
        assert merged.counts == union.counts
        assert (merged.sum, merged.min, merged.max) == (union.sum, union.min, union.max)

    def test_recorder_merge_folds_worker_deltas(self):
        worker, parent = LatencyRecorder(), LatencyRecorder()
        worker.record_many("EvaluateOp", [0.001, 0.002])
        parent.record("EvaluateOp", 0.003)
        parent.merge(worker.histograms())
        parent.merge(worker.histograms())
        assert parent.count("EvaluateOp") == 5
        assert worker.count() == 2   # shipping a delta leaves it intact


class TestFixedMemory:
    def test_a_million_samples_allocate_nothing_that_stays(self):
        recorder = LatencyRecorder()
        values = [random.Random(n).uniform(1e-5, 1e-1) for n in range(1000)]
        recorder.record_many("EvaluateOp", values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(999):
                recorder.record_many("EvaluateOp", values)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert recorder.count() == 1_000_000
        assert grown < 64 * 1024

    def test_a_report_costs_the_same_at_a_thousand_and_a_million_samples(self):
        def cost(recorder):
            recorder.to_dict()
            started = time.process_time()
            for _ in range(20):
                recorder.to_dict()
            return time.process_time() - started

        small = LatencyRecorder()
        small.record_many("EvaluateOp", [n * 1e-6 for n in range(1, 1001)])
        large = LatencyRecorder()
        large.merge(small.histograms())
        for _ in range(10):     # doubling: 1,024,000 samples
            large.merge(large.histograms())
        assert large.count() == 1_024_000
        assert cost(large) < 3 * cost(small) + 0.01
