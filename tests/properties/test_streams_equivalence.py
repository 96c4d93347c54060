"""The streams differential harness: ``StreamEngine()`` ≡ ``StreamEngine.reference()``.

The streams layer has two execution models: the shared plan every query
runs on (:mod:`repro.streams.plan` — compiled filters, columnar windows,
shared nodes) and the oracle (:mod:`repro.streams.reference`,
the seed's per-tuple interpreter).  This module is the one place that
asks whether they agree.  A grammar — one production per pattern and a
weighted distribution over them — draws *scripts*; Hypothesis drives the
draw, so a failure shrinks to a short script.

- **Queries.**  One declaration per query, filter? → map? → window?,
  registered either as StreamSQL text (the parser path: random keyword
  casing, stream qualifiers, aliases, mirrored comparisons) or directly
  as a ``QueryGraph``.  The direct path also says what the StreamSQL
  lexer cannot: negative literals, fractional time-window bounds and an
  INT time attribute.  Conditions are NOT/AND/OR trees over TIMESTAMP,
  INT, DOUBLE and STRING leaves; windows are tuple or time windows with
  every built-in aggregate over DOUBLE and INT columns.  A script draws
  its conditions and window shapes from a small vocabulary, so its
  queries share plan prefixes and tighten one another's filters.
- **Actions.**  register, twin (a live query's declaration again),
  withdraw and push; and the same three changes made from inside a
  dispatch, by a tap on the source (ahead of every query) or on a live
  query's output.  A read compares every live query's retained output
  (``engine.read``) and its ``total_appended``, mid-script, while the
  production side holds unread rows as columns.  One script in four
  first sets a small output retention (``max_buffer`` 1–8) for every
  query it registers, so reads see trimmed tails and a subscription
  may fall behind — on both sides alike; the input stream is read too,
  and keeps that retention.
- **Ingress.**  An ingest pushes one list per fault, whole, to both
  engines: a key in another case, a missing or extra key, an ``int`` in
  a DOUBLE or TIMESTAMP field (a whole column, or one value), a ``bool``
  in an INT field or among ints, a non-finite timestamp, an int too
  large for a float, or a ``StreamTuple`` among the records.  The production
  engine gathers a list of exact records into columns and falls back to
  converting record by record; the oracle always converts.  Both must
  accept the same lists as the same rows, or refuse them with the same
  error and nothing ingested.  A script with no tap on its source takes
  the production engine's columnar path end to end.  An ingest run is
  one to four lists, clean or with one fault each, that the production
  engine takes in one ``push_batches`` (one dispatch for the gathered
  lists, a list converted per record dispatched alone, in its place)
  and the oracle one ``push_batch`` per list: the same counts or errors
  per list, then the same reads.
- **Data.**  The production side gets each push cut into random batches
  (empty and singleton ones included); the oracle gets one tuple at a
  time.  Timestamps mostly ascend in decimal steps, now and then arrive
  late or jump a gap of up to 400 s, and values come in runs (constant
  windows, ties).

Every script compares each query's drained output (or the error a
subscription that fell behind raises), its output schema and length and
the engines' registration counters, then withdraws everything and checks
that the plan drained to zero nodes.  Comparison is ``==`` over
``(type, value)`` pairs: both sides hand the same values in the same
order to the same ``compute`` and coerce the results to the same field
types, so an int where the oracle has a float is a divergence.

``FUZZ_LONG=1`` raises the budget and draws windows up to 400 deep;
``FUZZ_SEED`` pins the Hypothesis seed (tier-1 runs seed 0, and a
failure reports the seed it ran under).  ``MUTANTS`` pins one script per
known way of breaking the plan, the windows or the compiled filters.
"""

import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import HealthCheck, Phase, given, note, seed, settings, strategies as st

from repro.errors import StreamError, UnknownHandleError
from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)
from repro.expr.parser import parse_condition
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple

LONG = bool(os.environ.get("FUZZ_LONG"))
SEED = int(os.environ.get("FUZZ_SEED") or (random.SystemRandom().randrange(2**31) if LONG else 0))
#: Scripts per run.  600 is the budget at which every plan break pinned
#: in ``MUTANTS`` fails the property itself, not only its script.
EXAMPLES = 600 if LONG else 200
#: The deepest window drawn (one window in ten is deep).
DEEP = 400 if LONG else 40
#: Scripts the generator census draws at its fixed seed.
CENSUS_SCRIPTS = 80
SETTINGS = dict(
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TUPLE, TIME = WindowType.TUPLE, WindowType.TIME
TIMESTAMP, INT, DOUBLE, STRING = DataType.TIMESTAMP, DataType.INT, DataType.DOUBLE, DataType.STRING

# -- the source ---------------------------------------------------------------------

#: Always declared: a TIMESTAMP clock, an INT clock (its whole seconds),
#: a small INT and a DOUBLE; the other two now and then; any order.  One
#: name is declared in mixed case: references resolve case-insensitively.
CORE = (Field("ts", TIMESTAMP), Field("n", INT), Field("i", INT), Field("x", DOUBLE))
OPTIONAL = (Field("y", DOUBLE), Field("Tag", STRING))
#: Case variants, so a case-insensitive string comparison shows.
STRINGS = ("red", "Red", "green", "")

SCHEMAS = st.lists(st.sampled_from(OPTIONAL), unique=True).flatmap(
    lambda extra: st.permutations(CORE + tuple(extra))
).map(lambda fields: Schema("sensor", fields))


class Feed(NamedTuple):
    """A push: *count* records drawn from *seed* on the script's clock;
    the production side gets them cut at *cuts*."""

    seed: int
    count: int
    cuts: Tuple[int, ...] = ()


class Clock:
    """The source's time and values, carried from push to push."""

    def __init__(self):
        self.ts = 1000.0
        self.values = None
        self.repeat = 0

    def records(self, schema, data):
        """The records *data* stands for: a :class:`Feed`, or a list of them."""
        if not isinstance(data, Feed):
            return [{field.name: row[field.name] for field in schema} for row in data]
        rng = random.Random(data.seed)
        rows = []
        for _ in range(data.count):
            roll = rng.random()
            if roll < 0.02:
                self.ts += round(rng.uniform(0, 400), 1)  # a gap
            elif roll < 0.1:
                self.ts -= rng.choice((0.5, 1.0, 2.5))  # a late arrival
            else:
                self.ts += rng.choice((0.0, 0.1, 0.3, 0.5, 1.0, 2.0))
            if self.repeat:
                self.repeat -= 1
            else:
                self.values = {
                    "i": rng.randint(-5, 5), "x": rng.randint(-40, 40) / 2,
                    "y": rng.randint(-40, 40) / 4, "Tag": rng.choice(STRINGS),
                }
                self.repeat = rng.randint(1, 11) if rng.random() < 0.1 else 0
            row = dict(self.values, ts=self.ts, n=math.floor(self.ts))
            rows.append({field.name: row[field.name] for field in schema})
        return rows


def cut(rows, cuts):
    """*rows* split at *cuts* (any order, repeats allowed: empty batches)."""
    bounds = [0, *sorted(min(point, len(rows)) for point in cuts), len(rows)]
    return [rows[low:high] for low, high in zip(bounds, bounds[1:])]


# -- queries ------------------------------------------------------------------------

NUMERIC_FNS = ("avg", "sum", "min", "max", "stdev", "median")
ANY_FNS = ("count", "firstval", "lastval")
MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
SPELLINGS = {"=": ("=", "=="), "!=": ("!=", "<>")}


class Query(NamedTuple):
    """One query's declaration, and how it is registered."""

    filter: Optional[BooleanExpression] = None
    map: Tuple[str, ...] = ()
    #: (WindowType, size, step, ((function, attribute), ...), time attribute)
    window: Optional[tuple] = None
    #: The spelling seed of its StreamSQL text; None registers the graph.
    sql: Optional[int] = None

    def spellable(self):
        """Whether StreamSQL can say it: a chain of at least one stage, a
        window of whole tuples or seconds over the first TIMESTAMP."""
        if self.window:
            _, size, step, _, time_attribute = self.window
            if not (type(size) is int and type(step) is int and time_attribute is None):
                return False
        return self.filter is not None or bool(self.map or self.window)

    def graph(self):
        operators = []
        if self.filter is not None:
            operators.append(FilterOperator(self.filter))
        if self.map:
            operators.append(MapOperator(list(self.map)))
        if self.window:
            kind, size, step, aggs, time_attribute = self.window
            specs = [AggregationSpec.parse(f"{fn}({attr})") for fn, attr in aggs]
            operators.append(AggregateOperator(WindowSpec(kind, size, step), specs, time_attribute))
        return QueryGraph("sensor", operators)

    def streamsql(self, schema):
        rng = random.Random(self.sql)

        def kw(word):
            return rng.choice((str.upper, str.lower, str.title))(word)

        def ref(stream, name):  # the parser strips a qualifier
            return f"{stream}.{name}" if rng.random() < 0.3 else name

        def condition(expression, stream):
            if isinstance(expression, TrueExpression):
                return kw("true")
            if isinstance(expression, NotExpression):
                return f"{kw('not')} ({condition(expression.child, stream)})"
            if not isinstance(expression, SimpleExpression):
                joiner = f" {kw('and' if isinstance(expression, AndExpression) else 'or')} "
                return "(" + joiner.join(condition(c, stream) for c in expression.children) + ")"
            value, op = expression.value, expression.op.value
            left = ref(stream, expression.attribute)
            right = f"'{value}'" if isinstance(value, str) else repr(value)
            if rng.random() < 0.2:  # ``literal op attribute``, which the parser mirrors
                left, right, op = right, left, MIRROR[op]
            return f"{left} {rng.choice(SPELLINGS.get(op, (op,)))} {right}"

        wanted = {"filter": self.filter is not None, "map": self.map, "window": self.window}
        stages = [stage for stage in wanted if wanted[stage]]
        fields = ", ".join(f"{field.name} {kw(field.dtype.value)}" for field in schema)
        lines = [f"{kw('create')} {kw('input')} {kw('stream')} sensor ({fields});"]
        current = "sensor"
        for index, stage in enumerate(stages):
            target = "out" if index == len(stages) - 1 else f"s{index}"
            output = kw("output") + " " if target == "out" else ""
            lines.append(f"{kw('create')} {output}{kw('stream')} {target};")
            if stage == "filter":
                body = f"* {kw('from')} {current} {kw('where')} {condition(self.filter, current)}"
            elif stage == "map":
                items = [
                    ref(current, name) + (f" {kw('as')} {name}_out" if rng.random() < 0.2 else "")
                    for name in self.map
                ]
                body = f"{', '.join(items)} {kw('from')} {current}"
            else:
                kind, size, step, aggs, _ = self.window
                unit = kw("tuples" if kind is TUPLE else "seconds")
                extent = f"{kw('size')} {size} {kw('advance')} {step} {unit}"
                lines.append(f"{kw('create')} {kw('window')} w ({extent});")
                calls = ", ".join(f"{kw(fn)}({ref(current, attr)})" for fn, attr in aggs)
                body = f"{calls} {kw('from')} {current}[w]"
            lines.append(f"{kw('select')} {body} {kw('into')} {target};")
            current = target
        return "\n".join(lines)


# -- the grammar --------------------------------------------------------------------
#
# Every strategy below is built once (per field set, for conditions), and
# a script is drawn imperatively through them: rebuilding strategies per
# draw costs Hypothesis far more than running the script does.

INDEX = st.integers(0, 63)  # a choice among n, taken modulo n
FNS = st.sampled_from(NUMERIC_FNS + ANY_FNS)
SQL = st.none() | st.integers(0, 2**16)


def literals(field):
    if field.dtype is STRING:
        return st.sampled_from(STRINGS)
    if field.dtype is INT:
        return st.integers(-6, 6) if field.name == "i" else st.integers(995, 1100)
    if field.dtype is TIMESTAMP:
        return st.integers(1990, 2200).map(lambda k: k / 2)
    return st.integers(0, 24).map(lambda k: k / 2) | st.integers(-12, 12)


@lru_cache(maxsize=None)
def condition_grammar(fields):
    """(leaves, NOT/AND/OR trees) over *fields*, type-correct."""
    leaves = st.one_of([
        st.builds(
            SimpleExpression, st.just(field.name),
            st.sampled_from(
                (Operator.EQ, Operator.NE) if field.dtype is STRING else tuple(Operator)
            ),
            literals(field),
        )
        for field in fields
    ])
    trees = st.recursive(
        st.just(TrueExpression()) | leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda cs: AndExpression(tuple(cs))),
            st.lists(children, min_size=2, max_size=3).map(lambda cs: OrExpression(tuple(cs))),
            children.map(NotExpression),
        ),
        max_leaves=6,
    )
    return leaves, trees


def extents(small):
    """(size, step): small, or one time in ten deep (size ≤ DEEP, step ≤ 3).
    A deep size is spread over 9..DEEP by an index, because Hypothesis
    draws a wide bounded integer mostly at its bounds and at constants."""
    deep = st.tuples(INDEX.map(lambda k: 9 + (DEEP - 9) * k // 63), st.integers(1, 3))
    return st.integers(0, 9).flatmap(lambda roll: deep if roll == 0 else st.tuples(small, small))


#: (window type, (size, step), time attribute: the first TIMESTAMP, or named)
SHAPES = st.tuples(st.just(TUPLE), extents(st.integers(1, 8)), st.none()) | st.tuples(
    st.just(TIME),
    extents(st.integers(1, 10) | st.sampled_from((0.3, 0.5, 1.5, 2.5))),
    st.sampled_from((None, "ts", "n")),
)


def feeds(minimum):
    counts = st.integers(0, 9).flatmap(
        lambda roll: st.integers(minimum, DEEP + 60) if roll == 0 else st.integers(minimum, 20)
    )
    cuts = st.lists(st.integers(0, DEEP + 60), max_size=4).map(tuple)
    return st.builds(Feed, st.integers(0, 2**32 - 1), counts, cuts)


FEEDS = feeds(0)
TAP_FEEDS = feeds(1)  # a tap fires only on a batch


def draw_query(draw, schema, grammar, vocabulary):
    """A declaration whose filter and window shape come, more often than
    not, from the script's *vocabulary*: the same condition (a shared
    node), a conjunction with it (a tighter filter beside it), or a new
    one."""
    leaves, trees = grammar
    pool, shape_pool = vocabulary
    names = [field.name for field in schema]
    numeric = [field.name for field in schema if field.is_numeric]
    condition = window = None
    projection, needed = (), set()
    if draw(st.booleans()):
        form = draw(st.integers(0, 2))
        condition = draw(trees) if form == 2 else pool[draw(INDEX) % len(pool)]
        if form == 1:
            condition = AndExpression((condition, draw(leaves)))
    if draw(st.booleans()):
        kind, (size, step), time_attribute = (
            shape_pool[draw(INDEX) % len(shape_pool)] if draw(st.booleans()) else draw(SHAPES)
        )
        aggs = []
        for _ in range(draw(st.integers(1, 4))):
            fn = draw(FNS)
            attributes = numeric if fn in NUMERIC_FNS else names
            aggs.append((fn, attributes[draw(INDEX) % len(attributes)]))
        aggs = tuple(dict.fromkeys(aggs))
        window = (kind, size, step, aggs, time_attribute)
        needed = {attr for _, attr in aggs} | ({time_attribute or "ts"} if kind is TIME else set())
    if draw(st.booleans()):
        kept = [name for name in names if draw(st.booleans())] or ([] if needed else names[:1])
        projection = tuple(kept + sorted(needed - set(kept)))
    return Query(condition, projection, window, draw(SQL))


#: How often each action is drawn: a production per kind, weighted.
ACTION_DISTRIBUTION = {
    "register": 3, "twin": 2, "withdraw": 2, "push": 3, "from-source": 3, "from-output": 3,
}
#: The output retention a script sets first, if any (one in four).
RETENTIONS = st.integers(0, 3).flatmap(lambda roll: st.integers(1, 8) if roll == 0 else st.none())
KINDS = st.sampled_from(
    [kind for kind, weight in ACTION_DISTRIBUTION.items() for _ in range(weight)]
)
#: Twins weigh double here: sharing decided mid-dispatch is the plan's hardest case.
CHANGES = st.sampled_from(("register", "twin", "twin", "withdraw"))


def tap_change(draw, query):
    kind = draw(CHANGES)
    return (kind, query() if kind == "register" else draw(INDEX))


#: A change to the query set is a register (of a declaration), a twin or
#: a withdraw (of the live query at an index, modulo the live count); a
#: tap makes one from inside the dispatch of a batch of its own.
PRODUCTIONS = {
    "register": lambda draw, query: query(),
    "twin": lambda draw, query: draw(INDEX),
    "withdraw": lambda draw, query: draw(INDEX),
    "push": lambda draw, query: draw(FEEDS),
    "from-source": lambda draw, query: (tap_change(draw, query), draw(TAP_FEEDS)),
    "from-output": lambda draw, query: (draw(INDEX), tap_change(draw, query), draw(TAP_FEEDS)),
}


@st.composite
def scripts(draw):
    """(schema, actions): a few registrations — what a tap changes shows
    only against queries already there — then churn."""
    schema = draw(SCHEMAS)
    grammar = condition_grammar(tuple(sorted(schema, key=lambda field: field.name)))
    vocabulary = (
        draw(st.lists(grammar[1], min_size=1, max_size=3)),
        draw(st.lists(SHAPES, min_size=1, max_size=2)),
    )

    def query():
        return draw_query(draw, schema, grammar, vocabulary)

    actions = [("register", query()) for _ in range(draw(st.integers(1, 4)))]
    for kind in draw(st.lists(KINDS, min_size=1, max_size=16)):
        actions.append((kind, PRODUCTIONS[kind](draw, query)))
    # Reads and the retention are drawn last, so they leave the rest of
    # a script what it was before they were.
    for at in sorted(draw(st.lists(st.integers(0, len(actions)), max_size=3)), reverse=True):
        actions.insert(at, ("read", None))
    retention = draw(RETENTIONS)
    for at, ingest in sorted(draw(st.lists(INGESTS, max_size=2)), key=lambda a: -a[0]):
        actions.insert(min(at, len(actions)), ("ingest", ingest))
    for at, run in sorted(draw(st.lists(RUNS, max_size=2)), key=lambda a: -a[0]):
        actions.insert(min(at, len(actions)), ("ingest-run", run))
    return schema, actions if retention is None else [("retain", retention), *actions]


# -- ingress ------------------------------------------------------------------------

#: An ingest pushes one list per fault, each with that fault in it; every
#: fault takes the production engine off its column gather, or through
#: its int widening.
FAULTS = ("case", "missing", "extra", "int", "bool", "non-finite", "huge", "tuple")
#: (where in the script, (data, which record and field))
INGESTS = st.tuples(st.integers(0, 40), st.tuples(TAP_FEEDS, INDEX))
#: (where in the script, per list of one run (data, a fault or None, which
#: record and field)); clean lists weigh double.
RUNS = st.tuples(st.integers(0, 40), st.lists(
    st.tuples(FEEDS, st.sampled_from((None, None, *FAULTS)), INDEX), min_size=1, max_size=4,
).map(tuple))


def spoil(schema, rows, fault, index):
    """The records an ingest of *rows* pushes under *fault*.  Ints go
    into a DOUBLE or TIMESTAMP column (all of it, or one value) first for
    the faults about ints; a fault that changes an accepted value
    changes it in *rows* too."""
    names = [field.name for field in schema]
    name, at = names[index % len(names)], index % len(rows)
    wide = [field.name for field in schema if field.dtype in (DOUBLE, TIMESTAMP)]
    column = "x" if fault == "tuple" else wide[index % len(wide)]
    if fault in ("int", "bool", "huge", "tuple"):
        for row in rows if index % 2 or fault == "huge" else rows[at:at + 1]:
            row[column] = math.floor(row[column])
    records = [dict(row) for row in rows]
    record = records[at]
    if fault == "case":
        record[name.swapcase()] = record.pop(name)
    elif fault == "missing":
        del record[name]
    elif fault == "extra":
        record["extra" if index % 2 else name.swapcase()] = record[name]
    elif fault == "bool":
        record[("n", "i", column)[index % 3]] = bool(index % 2)
    elif fault == "non-finite":
        record["ts"] = (math.inf, -math.inf, math.nan)[index % 3]
    elif fault == "huge":
        record[column] = 10**400
    elif fault == "tuple":
        named = schema if index % 3 else Schema("other", list(schema)[::-1])
        records[at] = StreamTuple(named, tuple(record[name] for name in names))
    return records


# -- running a script ---------------------------------------------------------------

#: Pushed after every script, so state a query should never have picked
#: up (a batch it had to miss) shows in a window it closes.
CLOSING = Feed(0, 16)


class Tap:
    """A batch listener carrying one change, made the first time it fires."""

    def __init__(self):
        self.change = None

    def __call__(self, batch):
        change, self.change = self.change, None
        if change is not None:
            change()


class Side:
    """One engine, its queries in registration order, and (when *tapped*)
    a tap on the source attached before the first registration — so it
    fires ahead of the plan's listener and of every oracle query's."""

    def __init__(self, engine, schema, tapped=True):
        self.engine, self.schema, self.tap = engine, schema, Tap()
        self.source = engine.register_input_stream("sensor", schema)
        if tapped:
            self.source.add_batch_listener(self.tap)
        self.queries = []  # (handle, subscription, output schema)
        self.retention = None  # every output's max_buffer, when set

    def apply(self, change):
        kind, payload = change
        if kind == "withdraw":
            self.engine.withdraw(self.queries[payload][0])
            return
        if payload.sql is not None and payload.spellable():
            handle = self.engine.register_streamsql(payload.streamsql(self.schema))
        else:
            handle = self.engine.register_query(payload.graph())
        if self.retention is not None:
            self.engine.lookup(handle).output.max_buffer = self.retention
        output_schema = self.engine.lookup(handle).output_schema
        self.queries.append((handle, self.engine.subscribe(handle), output_schema))

    def read(self, index):
        """Query *index*'s logical length, then its retained tail (the
        length first: a read builds what is unread)."""
        handle = self.queries[index][0]
        total = self.engine.lookup(handle).output.total_appended
        return total, typed([t.values for t in self.engine.read(handle)])

    def read_source(self):
        """The input stream's logical length, then its retained tail."""
        return self.source.total_appended, typed([t.values for t in self.source.snapshot()])

    def ingest(self, records):
        """Push *records* as one list: the count, or the error's type and
        message — with nothing ingested."""
        before = self.source.total_appended
        try:
            return self.engine.push_batch("sensor", records)
        except Exception as error:
            assert self.source.total_appended == before, f"a refused list was ingested: {error}"
            return type(error), str(error)

    def ingest_run(self, record_lists):
        """Push *record_lists* in one ``push_batches``: per list the count,
        or the error's type and message; a refused list ingested nothing."""
        before = self.source.total_appended
        outcomes = self.engine.push_batches("sensor", record_lists)
        accepted = sum(outcome for outcome in outcomes if type(outcome) is int)
        assert self.source.total_appended == before + accepted, "a refused list was ingested"
        return [outcome if type(outcome) is int else (type(outcome), str(outcome))
                for outcome in outcomes]

    def push(self, batches):
        for batch in batches:
            assert self.engine.push_batch("sensor", batch) == len(batch)

    def push_with(self, change, batch, host):
        """Push *batch*; *change* is made from inside its dispatch, by the
        source tap or (with *host*) by a tap on that query's output.
        Returns whether the tap fired."""
        tap, output = self.tap, None
        if host is not None:
            tap, output = Tap(), self.engine.lookup(self.queries[host][0]).output
            output.add_batch_listener(tap)
        tap.change = lambda: self.apply(change)
        self.engine.push_batch("sensor", batch)
        fired, tap.change = tap.change is None, None
        if output is not None:
            output.remove_batch_listener(tap)
        return fired


def check_closed_form(query, inputs, rows):
    """A tuple window straight off the source (a projection aside) emits
    one row per complete window over the records it saw: ``count`` is the
    size and an INT ``sum`` is Python's."""
    _, size, step, aggs, _ = query.window
    windows = [inputs[low:low + size] for low in range(0, len(inputs) - size + 1, step)]
    assert len(rows) == len(windows)
    for position, (fn, attr) in enumerate(aggs):
        if fn == "count":
            assert [row[position] for row in rows] == [size] * len(windows)
        if fn == "sum" and attr in ("i", "n"):
            assert [row[position] for row in rows] == [sum(r[attr] for r in w) for w in windows]


def drained(subscription):
    """A subscription's unread rows, or the error of one that fell behind
    (its stream's name, which is the engine's to choose, left out)."""
    try:
        return typed([t.values for t in subscription.drain()])
    except StreamError as error:
        return str(error).replace(repr(subscription.stream.name), "")


def typed(rows):
    """*rows* with each value paired with its type: ``5 == 5.0`` and
    ``True == 1``, but an INT field's value is no DOUBLE field's."""
    return [[(type(value), value) for value in row] for row in rows]


def assert_one_feed(engine):
    """Every live plan node consumes the node its share registry files
    it under: its ``feed`` holds it in ``children_by_fp``, or it has no
    fingerprint and is shared with nobody."""
    for plan in engine._plans.values():
        for node in plan.live_nodes():
            if node.fingerprint is not None:
                assert node in node.feed.children_by_fp.get(node.fingerprint, ()), node


def run_script(script):
    """Drive both engines through *script* and compare them; returns the
    production plan's stats, the number of output rows compared and the
    number of reads that saw a trimmed tail."""
    schema, script_actions = script
    tapped = any(action == "from-source" for action, _ in script_actions)
    production = Side(StreamEngine(), schema, tapped)
    oracle = Side(StreamEngine.reference(), schema, tapped)
    sides = (production, oracle)
    clock, log = Clock(), []  # every record pushed, in order
    declared, live = [], []  # per registration its Query; indices of the live ones
    spans = []  # per registration [first record, end] it saw; None when a tap withdrew it
    trimmed = 0  # reads of a tail shorter than its output

    def resolve(change):
        """*change* with its query named; None when it needs a live one."""
        kind, payload = change
        if kind == "register":
            return change
        if not live:
            return None
        index = live[payload % len(live)]
        return ("register", declared[index]) if kind == "twin" else (kind, index)

    def compare_reads():
        nonlocal trimmed
        for index in live:
            got, expected = (side.read(index) for side in sides)
            assert got == expected, f"query #{index} read diverged: {declared[index]}"
            trimmed += expected[0] > len(expected[1])
        got, expected = (side.read_source() for side in sides)
        assert got == expected, "the input stream's read diverged"

    def account(change, at):
        kind, payload = change
        if kind == "register":
            live.append(len(declared))
            declared.append(payload)
            spans.append([at, None])
        else:
            live.remove(payload)
            spans[payload] = None if at is None else [spans[payload][0], at]

    for action, payload in [*script_actions, ("push", CLOSING)]:
        assert_one_feed(production.engine)  # as the previous step left it
        if action == "retain":
            for side in sides:
                side.retention = side.source.max_buffer = payload
            continue
        if action == "ingest":
            data, index = payload
            for shift, fault in enumerate(FAULTS):
                rows = clock.records(schema, data)
                records = spoil(schema, rows, fault, index + shift)
                got, expected = (side.ingest(records) for side in sides)
                assert got == expected, f"ingest diverged ({fault}): {got!r} != {expected!r}"
                if expected == len(rows):
                    log.extend(rows)
            continue
        if action == "ingest-run":
            rows = [clock.records(schema, data) for data, _, _ in payload]
            record_lists = [
                spoil(schema, data, fault, index) if fault and data else [dict(r) for r in data]
                for data, (_, fault, index) in zip(rows, payload)
            ]
            got = production.ingest_run(record_lists)
            expected = [oracle.ingest(records) for records in record_lists]
            assert got == expected, f"ingest run diverged: {got!r} != {expected!r}"
            for data, outcome in zip(rows, expected):
                if outcome == len(data):
                    log.extend(data)
            compare_reads()
            continue
        if action == "read":
            compare_reads()
            continue
        if action == "push":
            rows = clock.records(schema, payload)
            production.push(cut(rows, getattr(payload, "cuts", ())))
            oracle.push([[row] for row in rows])
            log.extend(rows)
            continue
        if action not in ("from-source", "from-output"):
            change = resolve((action, payload))
            if change is not None:
                for side in sides:
                    side.apply(change)
                account(change, len(log))
            continue
        # A change from inside the dispatch: both engines get the same
        # batch, because a batch is what a tap's change is aligned to.
        if action == "from-source":
            host, (change, data) = None, payload
        elif live:
            host, change, data = payload
            host = live[host % len(live)]
        else:
            continue
        change = resolve(change)
        if change is None:
            continue
        rows = clock.records(schema, data)
        fired = [side.push_with(change, rows, host) for side in sides]
        assert fired[0] == fired[1], "the tap fired on one engine only"
        log.extend(rows)
        if fired[0]:
            account(change, len(log) if change[0] == "register" else None)
    assert_one_feed(production.engine)

    compare_reads()
    compared = 0
    for index, (query, span, (_, got, got_schema), (_, expected, expected_schema)) in enumerate(
        zip(declared, spans, production.queries, oracle.queries)
    ):
        assert got.stream.total_appended == expected.stream.total_appended, (
            f"query #{index} length diverged: {query}"
        )
        rows = drained(expected)
        assert drained(got) == rows, f"query #{index} diverged: {query}"
        assert got_schema == expected_schema, f"query #{index}: {query}"
        if isinstance(rows, str):
            continue
        if span and query.filter is None and query.window and query.window[0] is TUPLE:
            check_closed_form(query, log[span[0]:span[1]], [[v for _, v in row] for row in rows])
        compared += len(rows)

    for side in sides:
        assert side.engine.total_registered == len(declared)
        assert side.engine.total_withdrawn == len(declared) - len(live)
        assert side.engine.active_query_count == len(live)
    for index in list(live):
        for side in sides:
            side.apply(("withdraw", index))
    (stats,) = production.engine.plan_stats().values()
    assert stats["queries"] == stats["live_nodes"] == 0
    assert oracle.engine.plan_stats() == {}
    for side in sides:
        for handle, _, _ in side.queries:
            with pytest.raises(UnknownHandleError):
                side.engine.read(handle)
    return stats, compared, trimmed


@seed(SEED)
@settings(max_examples=EXAMPLES, **SETTINGS)
@given(script=scripts())
def test_engine_matches_the_oracle(script):
    note(f"FUZZ_SEED={SEED}")
    run_script(script)


# -- pinned scripts -----------------------------------------------------------------

SCHEMA = Schema("sensor", CORE + OPTIONAL)
#: The arrival sits one ulp below the end of window 152 of a 60 s / 2.5 s
#: window from T0, and ``(arrival - end) // step`` rounds it onto that end.
T0 = -116.9
LATE = math.nextafter(T0 + 152 * 2.5 + 60, -math.inf)


def rows(*points):
    """Explicit records: (ts, x) points, the other fields derived from x."""
    return [
        {"ts": ts, "n": math.floor(ts), "i": int(x), "x": float(x), "y": x / 2,
         "Tag": STRINGS[int(x) % 4]}
        for ts, x in points
    ]


def where(condition):
    return Query(filter=parse_condition(condition) if isinstance(condition, str) else condition)


def window(kind, size, step, *aggs):
    """A window straight off the source; *aggs* are (function, attribute)."""
    return Query(window=(kind, size, step, aggs, None))


PASS = Query()  # a passthrough
BARE = window(TUPLE, 3, 3, ("min", "x"), ("max", "x"), ("count", "x"))
#: Every aggregate over the DOUBLE column, the numeric ones over INT too.
EVERY_AGGREGATE = tuple((fn, "x") for fn in NUMERIC_FNS + ANY_FNS) + tuple(
    (fn, "i") for fn in NUMERIC_FNS
)
CHAIN = Query(
    parse_condition("x > 1 AND i != 0"), ("ts", "x", "i"),
    (TUPLE, 3, 1, (("avg", "x"), ("sum", "i")), None),
)


#: One script per way of breaking the engine that this harness is known
#: to catch, each failing under its break; two more pin dispatch edges,
#: one a crash the harness found, and the rest shapes the tier-1 draw
#: reaches rarely or not at all.
MUTANTS = {
    # The plan delivers to a sink registered while the batch was in flight.
    "newcomer-sink-gets-the-batch": [
        ("register", PASS), ("from-source", (("register", PASS), Feed(1, 2))),
    ],
    # The plan runs the batch through a node created while it was in flight.
    "newcomer-node-consumes-the-batch": [
        ("register", PASS), ("from-source", (("register", BARE), Feed(1, 2))),
    ],
    # The sweep delivers to a sink deactivated earlier in the same sweep.
    "withdrawn-sink-still-delivered": [
        ("register", PASS), ("register", PASS), ("from-output", (0, ("withdraw", 1), Feed(1, 1))),
    ],
    # The plan shares an untouched window with a query that must miss the
    # batch the window is about to consume.
    "untouched-window-shared-mid-dispatch": [
        ("register", BARE), ("from-source", (("twin", 0), Feed(1, 2))),
    ],
    # A query withdrawn from a sibling's output dispatch gets nothing
    # more, and nothing crashes on its closed output.
    "sibling-withdrawn-mid-dispatch": [
        ("register", where("x > 0")), ("register", where("x > 0")),
        ("from-output", (0, ("withdraw", 1), rows((1000, 1), (1001, 2), (1002, 3)))),
        ("push", rows((1003, 4), (1004, 5))),
    ],
    # Empty batches, and an empty push, change no window.
    "empty-batches": [
        ("register", where("x > 0")), ("register", BARE),
        ("push", Feed(2, 0)), ("push", Feed(3, 7, (0, 0, 3, 7, 7))),
    ],
    # A tuple window trims one value past its dead prefix.
    "tuple-window-trims-only-the-dead-prefix": [
        ("register", window(TUPLE, 3, 2, ("sum", "i"), ("firstval", "x"))),
        ("push", Feed(4, 10, (3, 5, 8))),
    ],
    # A time window's gap jump skips the window the arrival leaves open.
    "gap-jump-stops-at-the-open-window": [
        ("register", window(TIME, 2, 1, ("count", "x"), ("lastval", "x"))),
        ("push", rows((1000, 1), (1001, 2), (1010, 3), (1011, 4), (1012.5, 5))),
    ],
    # A window emits its results uncoerced: the median of an odd count of
    # INTs is an int in a DOUBLE field, and ``2 == 2.0``.
    "median-of-ints-is-a-double": [
        ("register", window(TIME, 3, 3, ("median", "i"), ("sum", "i"))),
        ("push", rows((1000, 1), (1001, 5), (1002, 2), (1003, 0))),
    ],
    # The gap jump keeps a rounding overshoot (no back-off).
    "gap-jump-backs-off-a-rounding-overshoot": [
        ("register", window(TIME, 60, 2.5, ("count", "x"), ("sum", "x"))),
        ("push", rows((T0, 1), (LATE, 2), (LATE + 1000, 3))),
    ],
    # NOT TRUE beside a sibling filter: its normal form spells FALSE with
    # literals that name no attribute, so nothing may compile them.
    "not-true-beside-a-sibling-filter": [
        ("register", where("TRUE")), ("register", where(NotExpression(TrueExpression()))),
        ("push", Feed(5, 4)),
    ],
    # A compiled ``<=`` on an INT column compares ``<``.
    "int-le-keeps-its-tie": [
        ("register", where("i <= 2")), ("push", rows((1000, 1), (1001, 2), (1002, 3))),
    ],
    # A compiled NOT is dropped.
    "not-is-kept": [("register", where("NOT (x > 1)")), ("push", rows((1000, 1), (1001, 2)))],
    # A compiled OR is evaluated as AND.
    "or-is-not-and": [
        ("register", where("x > 2 OR tag = 'red'")),
        ("push", rows((1000, 3), (1001, 4), (1002, 2))),
    ],
    # A compiled string equality ignores case.
    "string-equality-is-case-sensitive": [
        ("register", where("tag = 'red'")), ("push", rows((1000, 0), (1001, 1))),
    ],
    # A compiled negative literal loses its sign.
    "negative-literal-keeps-its-sign": [
        ("register", where(SimpleExpression("x", Operator.GT, -3))),
        ("push", rows((1000, -4), (1001, -2), (1002, 0))),
    ],
    # Windows as deep as ``FUZZ_LONG`` draws (tier-1 draws 40), every
    # aggregate, over runs of equal values, cut around a window's end.
    "deep-tuple-window": [
        ("register", window(TUPLE, 400, 3, *EVERY_AGGREGATE)),
        ("push", Feed(6, 520, (1, 137, 399, 400, 401))),
    ],
    "deep-time-window": [
        ("register", window(TIME, 200, 3, *EVERY_AGGREGATE)),
        ("push", Feed(7, 600, (250, 251, 480))),
    ],
    # Step 1, the most overlap: every record past the first size - 1
    # closes a window.
    "fully-overlapping-window": [
        ("register", window(TUPLE, 10, 1, ("median", "x"), ("stdev", "x"), ("lastval", "Tag"))),
        ("push", Feed(8, 40, (7, 8, 23))),
    ],
    # Late arrivals land in still-open windows by value, across batches.
    "late-arrivals-land-by-value": [
        ("register", window(TIME, 3, 1, ("count", "x"), ("firstval", "x"), ("max", "x"))),
        ("push", rows((1000, 1), (1002.5, 2), (1001, 3), (1004, 4))),
        ("push", rows((1000.5, 5), (1006, 6), (1003, 7), (1009, 8))),
    ],
    # A time window over an INT clock, which StreamSQL cannot name.
    "int-time-attribute": [
        ("register", Query(window=(TIME, 4, 2, (("sum", "i"), ("count", "n"), ("avg", "x")), "n"))),
        ("push", Feed(9, 30, (5, 17))),
    ],
    # avg, sum and stdev under churn, twinned and re-registered mid-dispatch.
    "every-aggregate-under-churn": [
        ("register", window(TUPLE, 4, 2, *EVERY_AGGREGATE)), ("push", Feed(10, 5, (2,))),
        ("from-source", (("twin", 0), Feed(11, 3))),
        ("withdraw", 0), ("push", Feed(12, 6, (1, 4))),
        ("from-output", (0, ("register", window(TUPLE, 4, 2, *EVERY_AGGREGATE)), Feed(13, 9))),
        ("push", Feed(14, 7)),
    ],
    # An output retaining 3 rows holds what arrives unread as columns: it
    # trims them one off, counts them twice in ``total_appended`` or
    # builds them out of order.  Read mid-stream, beside a listener on
    # one output (whose rows are built at once) and subscriptions that
    # fall behind.
    "small-retention-read-mid-stream": [
        ("retain", 3), ("register", CHAIN), ("register", window(TUPLE, 2, 1, ("sum", "i"))),
        ("register", Query(map=("ts", "x"))), ("push", Feed(16, 9, (4,))), ("read", None),
        ("from-output", (1, ("register", PASS), Feed(17, 5))),
        ("push", Feed(18, 11, (2, 7))), ("read", None), ("push", Feed(19, 2)), ("read", None),
    ],
    # Every ingress fault, with no tap on the source (so the production
    # engine ingests columns end to end) and the input stream retaining
    # 4 rows: a refused list leaves nothing ingested, an accepted one the
    # rows the oracle converted one by one.  Caught here: a column
    # gathered from the wrong field, a refused list half-ingested, an
    # input retention one off, an int widening that lets an overflow
    # through or widens a bool.
    "ingress-faults": [
        ("retain", 4), ("register", CHAIN), ("register", where("x > 1")),
        ("register", window(TIME, 3, 1, ("sum", "x"), ("lastval", "ts"), ("count", "n"))),
        ("ingest", (Feed(20, 6), 1)), ("read", None), ("push", Feed(21, 30, (9,))), ("read", None),
        ("ingest", (Feed(22, 9), 2)), ("ingest", (Feed(23, 4), 6)), ("read", None),
    ],
    # Ingest runs, untapped: gathered lists around a list converted per
    # record (a key in another case, a conformant tuple), refused lists
    # and an empty one.  Caught here: two lists of a run swapped, a
    # refused list's rows dispatched, a per-record list dispatched after
    # the lists behind it.
    "ingest-runs": [
        ("retain", 5), ("register", CHAIN),
        ("register", window(TUPLE, 3, 1, ("sum", "i"), ("lastval", "ts"))),
        ("register", window(TIME, 4, 2, ("avg", "x"), ("count", "n"))),
        ("ingest-run", ((Feed(30, 4), None, 0), (Feed(31, 3), None, 0),
                        (Feed(32, 3), "case", 1), (Feed(33, 5), None, 0))),
        ("read", None),
        ("ingest-run", ((Feed(34, 0), None, 0), (Feed(35, 6), "tuple", 1),
                        (Feed(36, 3), "huge", 3), (Feed(37, 2), None, 0))),
        ("push", Feed(38, 7, (3,))),
        ("ingest-run", ((Feed(39, 9), "int", 1), (Feed(40, 4), None, 0),
                        (Feed(41, 4), "extra", 0), (Feed(42, 5), None, 0))),
    ],
    # One chain registered as StreamSQL and as a graph, beside a looser
    # filter that shares no node with it.
    "streamsql-and-graph-share-a-chain": [
        ("register", where("x > 1")), ("register", CHAIN._replace(sql=17)),
        ("register", CHAIN), ("push", Feed(15, 24, (0, 11))),
    ],
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_pinned_script(name):
    run_script((SCHEMA, MUTANTS[name]))


def test_push_is_a_singleton_push_batch():
    """``push(t)`` and ``push_batch([t])`` are output-identical, a query
    withdrawn from a sibling's output dispatch included."""
    outputs = []
    for single in (True, False):
        side = Side(StreamEngine(), SCHEMA)
        for _ in range(2):
            side.apply(("register", where("x > 0")))
        tap = Tap()
        tap.change = lambda side=side: side.apply(("withdraw", 1))
        side.engine.lookup(side.queries[0][0]).output.add_batch_listener(tap)
        for row in rows((1000, 1), (1001, 2), (1002, 3)):
            if single:
                side.engine.push("sensor", row)
            else:
                side.engine.push_batch("sensor", [row])
        outputs.append([[t.values for t in sub.drain()] for _, sub, _ in side.queries])
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == []  # withdrawn before its first record


# -- the generator census -----------------------------------------------------------


def census(script, tally):
    """Count what *script* draws: actions, renderings, stages, window
    types, time-attribute dtypes, deep windows, aggregate functions and
    the column types they aggregate."""
    schema, script_actions = script
    dtypes = {field.name: field.dtype.value for field in schema}
    tally["untapped"] += all(kind != "from-source" for kind, _ in script_actions)
    for kind, payload in script_actions:
        tally[f"action:{kind}"] += 1
        if kind == "ingest-run":
            faults = [fault for _, fault, _ in payload]
            tally["run:lists"] += len(faults)
            tally["run:mixed"] += None in faults and len(set(faults)) > 1
        if kind in ("ingest", "ingest-run"):
            continue
        change = (kind, payload)
        if kind in ("from-source", "from-output"):
            change = payload[0] if kind == "from-source" else payload[1]
        if change[0] != "register":
            continue
        query = change[1]
        tally["sql" if query.sql is not None and query.spellable() else "graph"] += 1
        tally["filter"] += query.filter is not None
        tally["map"] += bool(query.map)
        if query.window:
            window_type, size, _, aggs, time_attribute = query.window
            tally[f"{window_type.value}-window"] += 1
            tally["deep"] += size > 100
            if window_type is TIME:
                tally[f"time:{dtypes[time_attribute or 'ts']}"] += 1
            for fn, attr in aggs:
                tally[fn] += 1
                tally[dtypes[attr]] += 1


def census_tally():
    """What the census draws at its fixed seed, drawn in this process."""
    tally = Counter()

    @seed(7)
    @settings(max_examples=CENSUS_SCRIPTS, phases=[Phase.generate], **SETTINGS)
    @given(script=scripts())
    def draw(script):
        census(script, tally)
        stats, compared, trimmed = run_script(script)
        tally.update(
            shared=stats["nodes_shared"], rows=compared, trimmed=trimmed,
        )

    draw()
    return tally


#: The census draws in a child interpreter whose imports are this
#: module's, and the two the engines load lazily.  Hypothesis (6.155)
#: mixes constants harvested from every local module in ``sys.modules``
#: into its draws, so in process the scripts drawn at a fixed seed
#: depended on which tests ran before.
CENSUS_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
import test_streams_equivalence as harness
import repro.streams.reference, repro.streams.streamsql.parser
print(json.dumps(harness.census_tally()))
"""


def drawn_census():
    """:func:`census_tally` in a child interpreter with a fixed import set."""
    import repro

    paths = [str(Path(__file__).parent), str(Path(repro.__file__).parents[1])]
    child = subprocess.run(
        [sys.executable, "-c", CENSUS_CHILD, *paths],
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return Counter(json.loads(child.stdout.splitlines()[-1]))


@lru_cache(maxsize=None)
def first_census():
    return drawn_census()


def test_generator_census():
    """A silent generator is a broken harness.  At a fixed seed the
    grammar must draw every stage shape, rendering, aggregate function,
    DOUBLE and INT aggregated columns, time-attribute dtype and action
    kind, and a script with no tap on its source (and, under
    ``FUZZ_LONG``, a deep window); its
    scripts must share plan nodes and compare output rows."""
    tally = first_census()
    wanted = {"filter", "map", "tuple-window", "time-window", "sql", "graph", "untapped"}
    wanted |= {"time:timestamp", "time:int"}
    wanted |= {f"action:{kind}" for kind in (
        *ACTION_DISTRIBUTION, "read", "retain", "ingest", "ingest-run")}
    wanted |= {*NUMERIC_FNS, *ANY_FNS, "double", "int"}
    if LONG:
        wanted.add("deep")
    assert wanted - set(+tally) == set()
    # Floors at most half of what any of seeds 7-11 draws, with this
    # child's imports or with every ``repro`` module imported (the table
    # is in docs/performance.md, *One feed per plan node*), so an edit
    # that moves the constant pool passes and a generator that stopped
    # sharing, rendering StreamSQL, emitting rows or trimming does not.
    assert tally["shared"] >= 18 and tally["sql"] >= 15
    assert tally["rows"] >= 900 and tally["trimmed"] >= 30
    assert tally["run:lists"] >= 45 and tally["run:mixed"] >= 6


def test_the_census_draw_does_not_depend_on_what_was_imported_before():
    """Importing every ``repro`` module (and the e2e workloads) into this
    process leaves the census draw as it was."""
    before = first_census()
    for module in pkgutil.walk_packages(importlib.import_module("repro").__path__, "repro."):
        importlib.import_module(module.name)
    importlib.import_module("benchmarks.e2e.workloads")
    assert drawn_census() == before
