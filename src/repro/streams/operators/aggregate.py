"""Aggregate functions applied over sliding windows.

The paper's obligation vocabulary draws aggregate functions from the set
{Avg, Max, Min, Count, LastValue, FirstValue, ...}; Example 2 relies on
Sum.  Functions are looked up through a registry so downstream users can
add their own (they must be registered on both the policy- and the
engine-side to be usable in obligations).

A function is one whole-window ``compute`` callable plus its result-type
rule: every window, tuple- or time-based, is evaluated by calling
``compute`` on the window's column slice
(:mod:`repro.streams.operators.window`), which is also what the oracle
does over its row buffer, so the two agree bit for bit.
``AggregateFunction(compute=…)`` is the one extension point.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

from repro.errors import StreamError
from repro.streams.schema import DataType, Field


class AggregateFunction:
    """A named aggregate with its result-type rule.

    ``result_dtype`` maps the aggregated field's type to the output type:
    ``count`` always yields INT, ``avg``/``stdev`` always DOUBLE, while
    order statistics (min/max/first/last/median/sum) preserve the input
    type (sum of ints is an int; sum widens timestamps to double).
    """

    def __init__(
        self,
        name: str,
        compute: Callable[[Sequence], object],
        result_dtype: Callable[[DataType], DataType],
        requires_numeric: bool = True,
    ):
        self.name = name.lower()
        self._compute = compute
        self._result_dtype = result_dtype
        self.requires_numeric = requires_numeric

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
    A constant prefix is held as the exact ``(value, 0.0)`` state rather
    than run through the recurrence, so a constant window answers an
    exact 0.0 whatever its values (ints past 2**53, infinities).
    """
    first = values[0]
    constant = True
    mean = m2 = 0.0
    for n, value in enumerate(values, 1):
        if constant:
            if value == first or n == 1:
                mean = value
                continue
            constant = False
        delta = value - mean
        mean += delta / n
        m2 += delta * (value - mean)
    if len(values) <= 1:
        return 0.0
    return math.sqrt(max(m2, 0.0) / (len(values) - 1))


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


for _function in (
    AggregateFunction("avg", lambda v: sum(v) / len(v), _always_double),
    AggregateFunction("sum", sum, _sum_dtype),
    AggregateFunction("min", min, _preserve),
    AggregateFunction("max", max, _preserve),
    AggregateFunction("count", len, _always_int, requires_numeric=False),
    AggregateFunction("lastval", lambda v: v[-1], _preserve, requires_numeric=False),
    AggregateFunction("firstval", lambda v: v[0], _preserve, requires_numeric=False),
    AggregateFunction("median", _median, _always_double),
    AggregateFunction("stdev", _stdev, _always_double),
):
    register_aggregate_function(_function)
