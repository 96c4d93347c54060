"""One observability core: a fixed-memory histogram, a registry, spans.

:class:`Histogram` cuts each octave of seconds into :data:`SUB_BUCKETS`
equal buckets between :data:`LOWEST` and :data:`HIGHEST`, plus one
underflow and one overflow bucket: a value is placed with one
:func:`bisect.bisect_right`, a percentile is read to within half a
bucket (≤ 0.8% of its value), ``count`` / ``sum`` / ``min`` / ``max``
are exact, and two histograms merge bucket by bucket.

:class:`Registry` holds named views — callables returning the mapping a
component already keeps (its ``stats()``, a ``cache_info()``) — and
reads them only at :meth:`Registry.snapshot` time into one flat schema
of dotted names; no hot path calls it.

``spans.sink`` is ``None`` unless a reader attaches a callable
``sink(name, started, ended, tag)`` (``perf_counter`` seconds); a
stamping site tests that one attribute and does nothing else while it
is ``None``.
"""

from __future__ import annotations

import gc
import math
import time
from bisect import bisect_right
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Mapping, Optional

SUB_BUCKETS = 64
LOWEST = 2.0 ** -24     # ≈ 60 ns
HIGHEST = 2.0 ** 10     # ≈ 17 min
#: Bucket ``i`` holds values in ``[BOUNDS[i - 1], BOUNDS[i])``.
BOUNDS = [
    math.ldexp(1.0 + step / SUB_BUCKETS, exponent)
    for exponent in range(-24, 10) for step in range(SUB_BUCKETS)
] + [HIGHEST]
N_BUCKETS = len(BOUNDS) + 1


class Histogram:
    """Fixed-memory latency histogram (seconds).  Not locked: its owner
    serialises :meth:`record` and readers."""

    __slots__ = ("counts", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * N_BUCKETS
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, seconds: float) -> None:
        self.counts[bisect_right(BOUNDS, seconds)] += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def count(self) -> int:
        return sum(self.counts)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* in: as if its samples had been recorded here."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "Histogram":
        return Histogram().merge(self)

    def _value(self, index: int) -> float:
        """Bucket *index*'s midpoint, clamped to the exact extremes."""
        if 0 < index < N_BUCKETS - 1:
            middle = (BOUNDS[index - 1] + BOUNDS[index]) / 2
            return min(max(middle, self.min), self.max)
        return self.min if index == 0 else self.max

    # The histogram reads as the sorted sample it summarises, so
    # ``repro.framework.metrics.percentile`` interpolates it unchanged.
    def __len__(self) -> int:
        return self.count

    def __getitem__(self, rank: int) -> float:
        """The *rank*-th smallest sample: exact at either end, else its
        bucket's :meth:`_value`."""
        n = self.count
        if not -n <= rank < n:
            raise IndexError(rank)
        rank %= n
        if rank in (0, n - 1):
            return self.min if rank == 0 else self.max
        return self._value(bisect_right(list(accumulate(self.counts)), rank))

    def stdev(self) -> float:
        """Population standard deviation over bucket midpoints."""
        n = self.count
        mean = self.sum / n if n else 0.0
        spread = sum(count * (self._value(index) - mean) ** 2
                     for index, count in enumerate(self.counts) if count)
        return math.sqrt(spread / n) if n else 0.0


#: ``[collection start, total pause, longest pause]`` in seconds, once a
#: registry exists.
_gc_pause = [0.0, 0.0, 0.0]


def _on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        _gc_pause[0] = time.perf_counter()
    else:
        pause = time.perf_counter() - _gc_pause[0]
        _gc_pause[1] += pause
        _gc_pause[2] = max(_gc_pause[2], pause)


def _gc_view() -> Dict[str, object]:
    generations = gc.get_stats()
    return {
        "collections": [generation["collections"] for generation in generations],
        "collected": sum(generation["collected"] for generation in generations),
        "pause_s": _gc_pause[1],
        "pause_max_s": _gc_pause[2],
        "threshold": list(gc.get_threshold()),
    }


#: ``[owners, the thresholds before the first owner]``.
_young_owners: List = [0, None]


def own_young_generation() -> None:
    """Until the matching :func:`release_young_generation`, a young
    collection waits for a quarter of the heap as read now (CPython's
    own ratio for full collections), never for fewer than CPython's 700
    objects; the older generations keep their thresholds.  CPython
    counts allocations minus deallocations, so a heap that frees an old
    tuple for each new one crosses 700 only by drift, when the young
    list is full of live tuples a scan cannot free.  Cyclic garbage
    still waits for at most the threshold.  The first owner sets it;
    the last to release restores the thresholds the first found."""
    if not _young_owners[0]:
        _young_owners[1] = gc.get_threshold()
        gc.set_threshold(max(700, len(gc.get_objects()) // 4), *_young_owners[1][1:])
    _young_owners[0] += 1


def release_young_generation() -> None:
    _young_owners[0] -= 1
    if not _young_owners[0]:
        gc.set_threshold(*_young_owners[1])


class Registry:
    """Named views read at snapshot time into one flat schema."""

    def __init__(self) -> None:
        self._views: Dict[str, Callable[[], object]] = {"gc": _gc_view}
        if _on_gc not in gc.callbacks:
            gc.callbacks.append(_on_gc)

    def register(self, prefix: str, view: Callable[[], object]) -> None:
        self._views[prefix] = view

    @property
    def prefixes(self) -> List[str]:
        return list(self._views)

    def snapshot(self, prefixes: Optional[Iterable[str]] = None) -> Dict[str, object]:
        """Every view (or those under *prefixes*), flattened: mappings
        and named tuples become dotted names, a list of mappings is
        numbered, anything else is a leaf."""
        flat: Dict[str, object] = {}
        for prefix in self._views if prefixes is None else prefixes:
            _flatten(prefix, self._views[prefix](), flat)
        return flat


def _flatten(prefix: str, value, into: Dict[str, object]) -> None:
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, list) and value and all(isinstance(v, Mapping) for v in value):
        value = dict(enumerate(value))
    if not isinstance(value, Mapping):
        into[prefix] = value
        return
    for key, item in value.items():
        _flatten(f"{prefix}.{key}", item, into)


spans = SimpleNamespace(sink=None)


def pdp_counters(pdp) -> tuple:
    """What :func:`pdp_tag` compares across one evaluation."""
    if getattr(pdp, "blocking", False):
        return (getattr(pdp, "fallback_evaluations", 0),)
    shards = getattr(pdp, "shard_pdps", (pdp,))
    return sum(shard.cache.hits for shard in shards), getattr(pdp, "scatter_evaluations", 0)


def pdp_tag(pdp, before: tuple) -> str:
    """How *pdp* answered since *before*: a worker-pool ``pool`` hop (or
    its ``fallback`` while the shard was down), a ``scatter`` across
    shards, or a decision-cache ``hit`` / ``miss``."""
    after = pdp_counters(pdp)
    if len(after) == 1:
        return "fallback" if after[0] > before[0] else "pool"
    if after[1] > before[1]:
        return "scatter"
    return "hit" if after[0] > before[0] else "miss"
