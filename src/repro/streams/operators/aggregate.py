"""Aggregate functions applied over sliding windows.

The paper's obligation vocabulary draws aggregate functions from the set
{Avg, Max, Min, Count, LastValue, FirstValue, ...}; Example 2 relies on
Sum.  Functions are looked up through a registry so downstream users can
add their own (they must be registered on both the policy- and the
engine-side to be usable in obligations).

Besides the whole-window ``compute`` callable, a function may carry an
*incremental state* factory (:class:`AggregateState`): a small object
that consumes window churn as ``insert``/``evict`` pairs and answers
``result`` in O(1) (median: O(log size), on paired heaps), so a deep
sliding window costs O(step) per advance instead of O(size) per
emission; shallow windows, and functions registered without a state
factory (third-party registrations), are recomputed per window over
the columnar buffer (``operators.window._incremental_pays`` decides).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Dict, Optional, Sequence

from repro.errors import StreamError
from repro.streams.schema import DataType, Field


class AggregateState:
    """Incremental computation of one aggregate over a sliding window.

    The engine drives the state strictly window-fashion: values enter
    through :meth:`insert` and leave through :meth:`evict` in FIFO
    (arrival) order, mirroring how a sliding window advances.  The
    evicted value is always the oldest value still held, and is passed
    back in so sum-like states can reverse their update without storing
    the window themselves.  :meth:`result` may be called between any
    two operations and returns the aggregate over the currently-held
    values; the engine never asks for the result of an empty state.
    """

    __slots__ = ()

    def insert(self, value) -> None:
        """Add *value* (the newest window element)."""
        raise NotImplementedError

    def evict(self, value) -> None:
        """Remove *value* (always the oldest still-held element)."""
        raise NotImplementedError

    def result(self):
        """The aggregate over the currently-held values."""
        raise NotImplementedError

    def insert_many(self, values: Sequence) -> None:
        """Add *values* in order (newest last).

        Equivalent to one :meth:`insert` per value; states whose update
        distributes over a batch (sum, count, extremum) override this
        with a single C-speed reduction per batch.
        """
        insert = self.insert
        for value in values:
            insert(value)

    def evict_many(self, values: Sequence) -> None:
        """Remove *values*, the oldest still-held elements, in order."""
        evict = self.evict
        for value in values:
            evict(value)


class _CountState(AggregateState):
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def insert(self, value) -> None:
        self.n += 1

    def evict(self, value) -> None:
        self.n -= 1

    def insert_many(self, values) -> None:
        self.n += len(values)

    def evict_many(self, values) -> None:
        self.n -= len(values)

    def result(self):
        return self.n


class _SumState(AggregateState):
    """Running total with Neumaier compensation.

    A bare running total permanently loses whatever a large-magnitude
    intermediate absorbs: insert 1e16, insert 1.0 (rounded away — the
    ulp at 1e16 is 2), evict the 1e16, and the window reports 0.0
    forever after.  The compensation term catches what every add and
    subtract rounds off, so the held error stays at ulp scale relative
    to the data instead of to transient peaks; a fresh recomputation
    can still differ by a few ulps (the equivalence harness uses
    tolerances for double columns).  Int streams stay exact — every
    correction is then exactly zero and arbitrary-precision int
    arithmetic does the rest.
    """

    __slots__ = ("total", "correction")

    def __init__(self):
        self.total = 0
        self.correction = 0

    def _add(self, value) -> None:
        total = self.total
        added = total + value
        if abs(total) >= abs(value):
            self.correction += (total - added) + value
        else:
            self.correction += (value - added) + total
        self.total = added

    def _add_batch(self, values, sign: int) -> None:
        """Compensated add of a whole batch.

        A plain ``sum(values)`` pre-collapse would round small values
        away *inside* the batch before the compensation could see them
        (batch ``[1e16, 1.0]`` sums to 1e16 with the 1.0 gone), so
        every value must pass through the compensated update.  Small
        batches (a typical window advance) run an inlined Neumaier
        loop; large batches take one C-speed ``sum`` pass plus one
        ``math.fsum`` pass recovering the exactly-rounded residual
        ``true − s`` through the compensated path.  An int batch sums
        exactly (arbitrary precision) and skips the residual pass,
        keeping all-int streams exact.
        """
        if len(values) <= 8:
            total = self.total
            correction = self.correction
            for value in values:
                if sign < 0:
                    value = -value
                added = total + value
                if abs(total) >= abs(value):
                    correction += (total - added) + value
                else:
                    correction += (value - added) + total
                total = added
            self.total = total
            self.correction = correction
            return
        batch_sum = sum(values)
        self._add(batch_sum if sign > 0 else -batch_sum)
        if type(batch_sum) is int:
            return
        residual = math.fsum(itertools.chain(values, (-batch_sum,)))
        if residual:
            self._add(residual if sign > 0 else -residual)

    def insert(self, value) -> None:
        self._add(value)

    def evict(self, value) -> None:
        self._add(-value)

    def insert_many(self, values) -> None:
        self._add_batch(values, 1)

    def evict_many(self, values) -> None:
        self._add_batch(values, -1)

    def result(self):
        return self.total + self.correction


class _AvgState(_SumState):
    __slots__ = ("n",)

    def __init__(self):
        super().__init__()
        self.n = 0

    def insert(self, value) -> None:
        self._add(value)
        self.n += 1

    def evict(self, value) -> None:
        self._add(-value)
        self.n -= 1

    def insert_many(self, values) -> None:
        self._add_batch(values, 1)
        self.n += len(values)

    def evict_many(self, values) -> None:
        self._add_batch(values, -1)
        self.n -= len(values)

    def result(self):
        return (self.total + self.correction) / self.n


class _WelfordState(AggregateState):
    """Welford running mean/M2, with the reverse update for eviction.

    Insertion is the textbook single-pass recurrence; eviction inverts
    it (solve the recurrence for the state without *value*).  Reverse
    updates can leave a tiny M2 residue — of either sign — when the
    window variance collapses, so the variance is clamped at zero *in
    the state*: a negative residue is zeroed eagerly on eviction (not
    merely masked in :meth:`result`, where it would still poison later
    updates), and a window whose held values are provably all equal
    snaps mean/M2 back to the exact ``(value, 0.0)`` state.

    Constancy is detected in O(1) through the *suffix run*: the length
    of the newest streak of identical values.  FIFO eviction only ever
    removes the oldest element, so the suffix run is invariant under
    eviction (capped at ``n``), and ``run == n`` is exactly "every held
    value is equal" — the window where a fresh recomputation answers
    0.0 and the incremental state historically answered ~1e-7 garbage
    (the drift the PR 4 fuzzer caught).  With the snap-back, constant
    windows are bit-exact and the fuzzer tolerance for them is exact
    too.
    """

    __slots__ = ("n", "mean", "m2", "_run_value", "_run_length")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self._run_value = None
        self._run_length = 0

    def insert(self, value) -> None:
        self.n += 1
        if self._run_length and value == self._run_value:
            self._run_length += 1
        else:
            self._run_value = value
            self._run_length = 1
        if self._run_length >= self.n:
            # Every held value equals *value*: the exact state.
            self.mean = value
            self.m2 = 0.0
            return
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)

    def evict(self, value) -> None:
        self.n -= 1
        if self._run_length > self.n:
            self._run_length = self.n
        if self.n == 0:
            self.mean = 0.0
            self.m2 = 0.0
            self._run_value = None
            self._run_length = 0
            return
        if self._run_length >= self.n:
            # The surviving values are all the suffix-run value.
            self.mean = self._run_value
            self.m2 = 0.0
            return
        delta = value - self.mean
        mean = self.mean - delta / self.n
        self.m2 -= (value - mean) * delta
        self.mean = mean
        if self.m2 < 0.0:
            # Variance cannot be negative; zero the rounding residue now
            # so it cannot compound through later reverse updates.
            self.m2 = 0.0

    def result(self):
        if self.n <= 1:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / (self.n - 1))


class _MinMaxState(AggregateState):
    """Sliding-window extremum via the two-stacks trick.

    The window is split into an *in* stack (newest values, with one
    running extremum) and an *out* stack (oldest values, each paired
    with the extremum of everything above it).  Insert pushes on *in*;
    evict pops from *out*, pouring *in* over when it runs dry — O(1)
    amortized, and exact (no floating-point reassociation).
    """

    __slots__ = ("_better", "_in", "_in_best", "_out")

    def __init__(self, better: Callable):
        self._better = better  # two-argument min or max
        self._in: list = []
        self._in_best = None
        self._out: list = []  # (value, extremum of this value and all newer)

    def insert(self, value) -> None:
        self._in.append(value)
        self._in_best = (
            value if self._in_best is None else self._better(self._in_best, value)
        )

    def insert_many(self, values) -> None:
        if not values:
            return
        self._in.extend(values)
        best = self._better(values)  # builtin min/max over the batch
        self._in_best = (
            best if self._in_best is None else self._better(self._in_best, best)
        )

    def evict(self, value) -> None:
        if not self._out:
            better = self._better
            out_append = self._out.append
            best = None
            while self._in:
                top = self._in.pop()
                best = top if best is None else better(best, top)
                out_append((top, best))
            self._in_best = None
        self._out.pop()

    def result(self):
        if not self._out:
            return self._in_best
        best = self._out[-1][1]
        return best if self._in_best is None else self._better(best, self._in_best)


class _FirstState(AggregateState):
    """Oldest held value; needs the FIFO itself (evictions expose the
    successor), so it keeps a deque of the window's values."""

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue = deque()

    def insert(self, value) -> None:
        self._queue.append(value)

    def evict(self, value) -> None:
        self._queue.popleft()

    def insert_many(self, values) -> None:
        self._queue.extend(values)

    def evict_many(self, values) -> None:
        popleft = self._queue.popleft
        for _ in values:
            popleft()

    def result(self):
        return self._queue[0]


class _LastState(AggregateState):
    """Newest held value.  FIFO eviction only ever removes the newest
    value when it removes *everything*, so a value + count suffice."""

    __slots__ = ("_n", "_last")

    def __init__(self):
        self._n = 0
        self._last = None

    def insert(self, value) -> None:
        self._n += 1
        self._last = value

    def evict(self, value) -> None:
        self._n -= 1
        if not self._n:
            self._last = None

    def insert_many(self, values) -> None:
        if values:
            self._n += len(values)
            self._last = values[-1]

    def evict_many(self, values) -> None:
        self._n -= len(values)
        if not self._n:
            self._last = None

    def result(self):
        return self._last


class _MedianState(AggregateState):
    """Sliding-window median on paired heaps with lazy deletion.

    ``_lower`` is a max-heap (values negated) over the smaller half of
    the window, ``_upper`` a min-heap over the larger half.  Evictions
    are *lazy*: the departing value is recorded in ``_stale`` and
    physically removed only when it surfaces at a heap top, so every
    operation costs O(log n) amortized instead of the O(n) a mid-heap
    delete would need.  ``_lower_size``/``_upper_size`` count **live**
    values only, and the balance invariant — the lower half holds
    ⌈n/2⌉ live values — is maintained on those counts.

    Bit-identical to the :func:`_median` recompute: the heap tops are
    the same one or two middle order statistics of the live multiset,
    odd windows return the middle value unconverted (ints stay ints),
    even windows average the two middles with the identical ``/ 2.0``.
    """

    __slots__ = ("_lower", "_upper", "_lower_size", "_upper_size", "_stale")

    def __init__(self):
        self._lower: list = []   # negated values: max-heap, smaller half
        self._upper: list = []   # min-heap, larger half
        self._lower_size = 0
        self._upper_size = 0
        self._stale: dict = {}   # value -> pending lazy deletions

    def _prune_lower(self) -> None:
        heap, stale = self._lower, self._stale
        while heap:
            count = stale.get(-heap[0])
            if not count:
                return
            value = -heapq.heappop(heap)
            if count == 1:
                del stale[value]
            else:
                stale[value] = count - 1

    def _prune_upper(self) -> None:
        heap, stale = self._upper, self._stale
        while heap:
            count = stale.get(heap[0])
            if not count:
                return
            value = heapq.heappop(heap)
            if count == 1:
                del stale[value]
            else:
                stale[value] = count - 1

    def _rebalance(self) -> None:
        # A heap top about to move to the other heap must be live,
        # hence the prune before (and after, to re-expose a live top
        # for the next routing comparison) each move.
        if self._lower_size > self._upper_size + 1:
            self._prune_lower()
            heapq.heappush(self._upper, -heapq.heappop(self._lower))
            self._lower_size -= 1
            self._upper_size += 1
            self._prune_lower()
        elif self._lower_size < self._upper_size:
            self._prune_upper()
            heapq.heappush(self._lower, -heapq.heappop(self._upper))
            self._upper_size -= 1
            self._lower_size += 1
            self._prune_upper()

    def insert(self, value) -> None:
        # Every operation leaves the lower top pruned, so this routing
        # comparison never consults a lazily-deleted value.
        if self._lower_size and value <= -self._lower[0]:
            heapq.heappush(self._lower, -value)
            self._lower_size += 1
        else:
            heapq.heappush(self._upper, value)
            self._upper_size += 1
        self._rebalance()

    def evict(self, value) -> None:
        self._stale[value] = self._stale.get(value, 0) + 1
        if self._lower_size and value <= -self._lower[0]:
            self._lower_size -= 1
            self._prune_lower()
        else:
            self._upper_size -= 1
            self._prune_upper()
        self._rebalance()

    def result(self):
        self._prune_lower()
        if self._lower_size > self._upper_size:
            return -self._lower[0]
        self._prune_upper()
        return (-self._lower[0] + self._upper[0]) / 2.0


class AggregateFunction:
    """A named aggregate with its result-type rule.

    ``result_dtype`` maps the aggregated field's type to the output type:
    ``count`` always yields INT, ``avg``/``stdev`` always DOUBLE, while
    order statistics (min/max/first/last/median/sum) preserve the input
    type (sum of ints is an int; sum widens timestamps to double).

    ``make_state`` (optional) is a zero-argument factory producing an
    :class:`AggregateState` for incremental sliding-window evaluation;
    functions without one are recomputed per window from the columnar
    buffer, so third-party registrations keep working unchanged.
    """

    def __init__(
        self,
        name: str,
        compute: Callable[[Sequence], object],
        result_dtype: Callable[[DataType], DataType],
        requires_numeric: bool = True,
        make_state: Optional[Callable[[], AggregateState]] = None,
    ):
        self.name = name.lower()
        self._compute = compute
        self._result_dtype = result_dtype
        self.requires_numeric = requires_numeric
        self._make_state = make_state

    def validate_field(self, field: Field) -> None:
        if self.requires_numeric and not field.is_numeric:
            raise StreamError(
                f"aggregate {self.name!r} requires a numeric attribute, but "
                f"{field.name!r} has type {field.dtype.value}"
            )

    def result_field(self, field: Field) -> Field:
        """The output field produced by applying this function to *field*.

        Output naming follows the paper's Figure 4(b): ``avg(rainrate)``
        becomes ``avgrainrate``.
        """
        self.validate_field(field)
        return Field(f"{self.name}{field.name}", self._result_dtype(field.dtype))

    def compute(self, values: Sequence) -> object:
        if not values:
            raise StreamError(f"aggregate {self.name!r} applied to an empty window")
        return self._compute(values)

    def make_state(self) -> Optional[AggregateState]:
        """A fresh incremental state, or None (recompute per window)."""
        return self._make_state() if self._make_state is not None else None

    def __repr__(self) -> str:
        return f"AggregateFunction({self.name!r})"


def _preserve(dtype: DataType) -> DataType:
    return dtype


def _always_double(_: DataType) -> DataType:
    return DataType.DOUBLE


def _always_int(_: DataType) -> DataType:
    return DataType.INT


def _sum_dtype(dtype: DataType) -> DataType:
    return DataType.INT if dtype is DataType.INT else DataType.DOUBLE


def _median(values: Sequence) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _stdev(values: Sequence) -> float:
    """Sample standard deviation via Welford's single-pass recurrence.

    One pass instead of the two-pass mean-then-residuals formula, and
    numerically stable (no catastrophic cancellation of large means).
    Delegates to :class:`_WelfordState` — the insert recurrence over a
    whole window IS the single-pass algorithm, and keeping one copy
    keeps the recompute and incremental paths bit-identical on
    insert-only histories.
    """
    state = _WelfordState()
    state.insert_many(values)
    return state.result()


#: Registry of built-in aggregate functions, keyed by lower-case name.
AGGREGATE_FUNCTIONS: Dict[str, AggregateFunction] = {}


def register_aggregate_function(function: AggregateFunction) -> None:
    """Add *function* to the registry (replacing any same-named one)."""
    AGGREGATE_FUNCTIONS[function.name] = function


def get_aggregate_function(name: str) -> AggregateFunction:
    """Look up an aggregate function by (case-insensitive) name.

    Accepts the paper's spelling variants: ``lastval``/``lastvalue`` and
    ``firstval``/``firstvalue``.
    """
    key = name.strip().lower()
    aliases = {"lastvalue": "lastval", "firstvalue": "firstval", "average": "avg"}
    key = aliases.get(key, key)
    try:
        return AGGREGATE_FUNCTIONS[key]
    except KeyError:
        raise StreamError(
            f"unknown aggregate function {name!r}; known: "
            f"{sorted(AGGREGATE_FUNCTIONS)}"
        ) from None


def _min_state() -> _MinMaxState:
    return _MinMaxState(min)


def _max_state() -> _MinMaxState:
    return _MinMaxState(max)


for _function in (
    AggregateFunction("avg", lambda v: sum(v) / len(v), _always_double,
                      make_state=_AvgState),
    AggregateFunction("sum", sum, _sum_dtype, make_state=_SumState),
    AggregateFunction("min", min, _preserve, make_state=_min_state),
    AggregateFunction("max", max, _preserve, make_state=_max_state),
    AggregateFunction("count", len, _always_int, requires_numeric=False,
                      make_state=_CountState),
    AggregateFunction("lastval", lambda v: v[-1], _preserve, requires_numeric=False,
                      make_state=_LastState),
    AggregateFunction("firstval", lambda v: v[0], _preserve, requires_numeric=False,
                      make_state=_FirstState),
    AggregateFunction("median", _median, _always_double, make_state=_MedianState),
    AggregateFunction("stdev", _stdev, _always_double, make_state=_WelfordState),
):
    register_aggregate_function(_function)
