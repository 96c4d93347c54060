"""Randomized StreamSQL differential fuzzer (pyrqg-style).

A small grammar generator emits *valid* StreamSQL scripts — filter,
map and window-aggregation SELECT chains with randomized conditions,
projections, window shapes (tuple and time, overlapping and hopping)
and keyword spellings — plus a matched random tuple stream (mostly
ascending timestamps with occasional out-of-order regressions, which a
time window places by value).  Each script runs
through the full stack twice, parser → graph → engine:

- on the default **compiled** engine, ingested through ``push_batch``
  with randomized batch partitions (empty and singleton chunks
  included);
- on ``StreamEngine.reference()`` — the seed interpreted per-tuple
  path — ingested one tuple at a time;

and the two outputs must agree tuple-for-tuple, exactly: every window
is a recompute over the same values on both sides, so no field is
entitled to differ by an ulp.

The tier-1 run is seeded and bounded (fixed seeds, small budgets) so it
is deterministic and fast; set ``FUZZ_LONG=1`` (the CI nightly/manual
fuzz job does) for a much larger randomized pass, which also draws
*deep* tuple windows (sizes up to 400) so the ring-buffer trim stays
fuzzed through the whole stack.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.streams.engine import StreamEngine
from repro.streams.schema import DataType, Field, Schema

#: Numeric aggregate functions (operand must be numeric).
NUMERIC_AGGS = ("avg", "sum", "min", "max", "count", "stdev", "median")
#: Order/arrival aggregates (any operand dtype).
ANY_AGGS = ("count", "lastval", "firstval")

KEYWORD_CASES = (str.upper, str.lower, str.title)


def _kw(rng: random.Random, word: str) -> str:
    """Random keyword casing — the parser is case-insensitive."""
    return rng.choice(KEYWORD_CASES)(word)


class StreamSQLFuzzer:
    """Grammar-driven generator of (script, records) workloads.

    Productions mirror the StreamSQL subset the PEP emits (single SELECT
    chain over one input stream) while randomizing every free choice:
    stage combination, condition tree, projection subset and order,
    window type/size/step, aggregation set, qualified vs bare attribute
    references, optional AS aliases and keyword casing.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def window_shape(self, high: int) -> Tuple[int, int]:
        """(size, step), each 1..*high*; under ``FUZZ_LONG`` four in ten
        are instead a small step under a size of up to 400."""
        rng = self.rng
        size, step = rng.randint(1, high), rng.randint(1, high)
        if os.environ.get("FUZZ_LONG") and rng.random() < 0.4:
            step = rng.randint(1, 3)
            size = rng.randint(step, 400)
        return size, step

    # -- schema + data -----------------------------------------------------------

    def schema(self) -> Schema:
        rng = self.rng
        fields = [Field("ts", DataType.TIMESTAMP)]
        for i in range(rng.randint(1, 2)):
            fields.append(Field(f"i{i}", DataType.INT))
        for i in range(rng.randint(1, 2)):
            fields.append(Field(f"x{i}", DataType.DOUBLE))
        if rng.random() < 0.5:
            fields.append(Field("tag", DataType.STRING))
        rng.shuffle(fields)
        return Schema("sensor", fields)

    def records(self, schema: Schema, count: int) -> List[Dict[str, object]]:
        rng = self.rng
        timestamp = 1000.0
        out = []
        for _ in range(count):
            step = rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 3.0))
            if rng.random() < 0.08:
                step = -rng.choice((0.5, 1.0, 2.0))  # out-of-order arrival
            timestamp = max(0.0, timestamp + step)
            record: Dict[str, object] = {}
            for field in schema:
                if field.dtype is DataType.TIMESTAMP:
                    record[field.name] = timestamp
                elif field.dtype is DataType.INT:
                    record[field.name] = rng.randint(-5, 5)
                elif field.dtype is DataType.DOUBLE:
                    record[field.name] = round(rng.uniform(-50.0, 50.0), 2)
                else:
                    record[field.name] = rng.choice(("red", "green", "blue"))
            out.append(record)
        return out

    # -- conditions --------------------------------------------------------------

    def condition(self, schema: Schema, depth: int = 0) -> str:
        rng = self.rng
        if depth < 2 and rng.random() < 0.4:
            left = self.condition(schema, depth + 1)
            right = self.condition(schema, depth + 1)
            op = _kw(rng, rng.choice(("AND", "OR")))
            clause = f"({left} {op} {right})"
            if rng.random() < 0.15:
                clause = f"{_kw(rng, 'NOT')} {clause}"
            return clause
        if rng.random() < 0.05:
            return _kw(rng, "TRUE")
        field = rng.choice(list(schema))
        op = rng.choice(("<", ">", "<=", ">=", "=", "!=", "<>", "=="))
        # The StreamSQL lexer has no unary minus, so script literals are
        # non-negative; the generated data still spans negative values.
        if field.dtype is DataType.STRING:
            op = rng.choice(("=", "!="))
            literal = f"'{rng.choice(('red', 'green', 'blue'))}'"
        elif field.dtype is DataType.INT:
            literal = str(rng.randint(0, 5))
        elif field.dtype is DataType.TIMESTAMP:
            literal = str(round(rng.uniform(1000.0, 1100.0), 1))
        else:
            literal = str(round(rng.uniform(0.0, 50.0), 1))
        if rng.random() < 0.2:
            return f"{literal} {op} {field.name}"  # reversed orientation
        return f"{field.name} {op} {literal}"

    # -- the script --------------------------------------------------------------

    def query(self, schema: Schema) -> str:
        """One valid script: CREATEs + a filter?/map?/aggregate? chain."""
        rng = self.rng
        stages: List[str] = []
        want_filter = rng.random() < 0.6
        want_aggregate = rng.random() < 0.6
        want_map = rng.random() < 0.5
        if not (want_filter or want_map or want_aggregate):
            want_filter = True

        window_unit = rng.choice(("TUPLES", "SECONDS")) if want_aggregate else None
        attrs = [field.name for field in schema]
        if want_map:
            keep = [name for name in attrs if rng.random() < 0.6]
            if window_unit == "SECONDS" and "ts" not in keep:
                keep.append("ts")  # time windows need the timestamp attribute
            if not keep:
                keep = [rng.choice(attrs)]
            rng.shuffle(keep)
            map_attrs = keep
        else:
            map_attrs = attrs

        lines: List[str] = []
        field_list = ", ".join(f"{f.name} {f.dtype.value}" for f in schema)
        lines.append(f"{_kw(rng, 'CREATE')} {_kw(rng, 'INPUT')} "
                     f"{_kw(rng, 'STREAM')} sensor ({field_list});")

        current = "sensor"
        index = 0

        def next_target(is_last: bool) -> str:
            nonlocal index
            target = "output" if is_last else f"internal_{index}"
            keyword = "OUTPUT STREAM" if is_last else "STREAM"
            lines.append(f"{_kw(rng, 'CREATE')} {keyword} {target};")
            index += 1
            return target

        remaining = sum((want_filter, want_map, want_aggregate))
        if want_filter:
            remaining -= 1
            target = next_target(remaining == 0)
            qualify = rng.random() < 0.3
            condition = self.condition(schema)
            if qualify:
                # Qualified references are stripped by the parser.
                for field in schema:
                    condition = condition.replace(field.name, f"{current}.{field.name}")
            lines.append(
                f"{_kw(rng, 'SELECT')} * {_kw(rng, 'FROM')} {current} "
                f"{_kw(rng, 'WHERE')} {condition} {_kw(rng, 'INTO')} {target};"
            )
            current = target
        if want_map:
            remaining -= 1
            target = next_target(remaining == 0)
            items = []
            for name in map_attrs:
                item = f"{current}.{name}" if rng.random() < 0.4 else name
                if rng.random() < 0.2:
                    item += f" {_kw(rng, 'AS')} {name}_out"  # alias is cosmetic
                items.append(item)
            lines.append(
                f"{_kw(rng, 'SELECT')} {', '.join(items)} "
                f"{_kw(rng, 'FROM')} {current} {_kw(rng, 'INTO')} {target};"
            )
            current = target
        if want_aggregate:
            target = next_target(True)
            size, step = self.window_shape(6)
            window_name = f"w_{size}_{step}"
            lines.append(
                f"{_kw(rng, 'CREATE')} {_kw(rng, 'WINDOW')} {window_name} "
                f"({_kw(rng, 'SIZE')} {size} {_kw(rng, 'ADVANCE')} {step} "
                f"{_kw(rng, window_unit)});"
            )
            numeric = [
                f.name for f in schema
                if f.is_numeric and f.name in map_attrs
            ]
            anyattr = [f.name for f in schema if f.name in map_attrs]
            pairs = set()
            for _ in range(rng.randint(1, 3)):
                if numeric and rng.random() < 0.8:
                    pairs.add((rng.choice(NUMERIC_AGGS), rng.choice(numeric)))
                else:
                    pairs.add((rng.choice(ANY_AGGS), rng.choice(anyattr)))
            items = [f"{fn}({attr})" for fn, attr in sorted(pairs)]
            lines.append(
                f"{_kw(rng, 'SELECT')} {', '.join(items)} "
                f"{_kw(rng, 'FROM')} {current}[{window_name}] "
                f"{_kw(rng, 'INTO')} {target};"
            )
        return "\n".join(lines) + "\n"

    def partitions(self, count: int) -> List[int]:
        """Random batch sizes summing to *count*, with empty and
        singleton chunks mixed in deliberately."""
        rng = self.rng
        sizes: List[int] = []
        remaining = count
        while remaining > 0:
            size = rng.choice((0, 1, 1, 2, 3, 5, 8, 13))
            size = min(size, remaining)
            sizes.append(size)
            remaining -= size
        return sizes

    # -- shared-prefix families --------------------------------------------------

    def shared_prefix_scripts(self, schema: Schema, variants: int) -> List[str]:
        """*variants* scripts over *schema* sharing one WHERE clause.

        Every script filters with the **same** condition text, then
        diverges: passthrough, a random projection, or a window
        aggregation with per-variant aggregate sets (some reusing one
        family window shape).  ~25% of variants are exact duplicates of
        an earlier script.  This is the workload the shared execution
        plan exists for: the filter node must merge across all
        variants, duplicates must merge whole chains.
        """
        rng = self.rng
        condition = self.condition(schema)
        field_list = ", ".join(f"{f.name} {f.dtype.value}" for f in schema)
        family_window = (*self.window_shape(5), rng.choice(("TUPLES", "SECONDS")))
        scripts: List[str] = []
        for _ in range(variants):
            if scripts and rng.random() < 0.25:
                scripts.append(rng.choice(scripts))  # exact duplicate
                continue
            lines = [f"CREATE INPUT STREAM sensor ({field_list});"]
            tail = rng.choice(("none", "map", "agg", "agg"))
            if tail == "none":
                lines.append("CREATE OUTPUT STREAM output;")
                lines.append(
                    f"SELECT * FROM sensor WHERE {condition} INTO output;"
                )
            elif tail == "map":
                keep = [f.name for f in schema if rng.random() < 0.6]
                if not keep:
                    keep = [rng.choice([f.name for f in schema])]
                lines.append("CREATE STREAM filtered;")
                lines.append("CREATE OUTPUT STREAM output;")
                lines.append(
                    f"SELECT * FROM sensor WHERE {condition} INTO filtered;"
                )
                lines.append(
                    f"SELECT {', '.join(keep)} FROM filtered INTO output;"
                )
            else:
                if rng.random() < 0.6:
                    size, step, unit = family_window
                else:
                    size, step, unit = (*self.window_shape(5),
                                        rng.choice(("TUPLES", "SECONDS")))
                numeric = [f.name for f in schema if f.is_numeric]
                pairs = set()
                for _ in range(rng.randint(1, 3)):
                    if numeric and rng.random() < 0.8:
                        pairs.add((rng.choice(NUMERIC_AGGS), rng.choice(numeric)))
                    else:
                        pairs.add((rng.choice(ANY_AGGS),
                                   rng.choice([f.name for f in schema])))
                items = [f"{fn}({attr})" for fn, attr in sorted(pairs)]
                lines.append("CREATE STREAM filtered;")
                lines.append(f"CREATE WINDOW w (SIZE {size} ADVANCE {step} {unit});")
                lines.append("CREATE OUTPUT STREAM output;")
                lines.append(
                    f"SELECT * FROM sensor WHERE {condition} INTO filtered;"
                )
                lines.append(f"SELECT {', '.join(items)} FROM filtered[w] INTO output;")
            scripts.append("\n".join(lines) + "\n")
        return scripts


# -- the differential check --------------------------------------------------------

def assert_rows_match(actual, expected, context: str) -> None:
    assert [t.values for t in actual] == [t.values for t in expected], context


def run_differential(seed: int, n_queries: int, n_tuples: int) -> Tuple[int, int]:
    """Fuzz *n_queries* scripts at *seed*; returns (queries, outputs) counts."""
    rng = random.Random(seed)
    fuzzer = StreamSQLFuzzer(rng)
    total_outputs = 0
    for query_index in range(n_queries):
        schema = fuzzer.schema()
        script = fuzzer.query(schema)
        records = fuzzer.records(schema, n_tuples)

        compiled = StreamEngine()
        reference = StreamEngine.reference()
        try:
            compiled_handle = compiled.register_streamsql(script)
            reference_handle = reference.register_streamsql(script)
        except Exception as error:  # pragma: no cover - generator bug trap
            pytest.fail(
                f"seed={seed} query={query_index}: generated script failed "
                f"to register: {error}\n{script}"
            )

        cursor = 0
        for size in fuzzer.partitions(len(records)):
            compiled.push_batch("sensor", records[cursor:cursor + size])
            cursor += size
        for record in records:
            reference.push("sensor", record)

        expected = reference.read(reference_handle)
        actual = compiled.read(compiled_handle)
        context = f"seed={seed} query={query_index}\n{script}"
        assert (
            compiled.lookup(compiled_handle).output_schema
            == reference.lookup(reference_handle).output_schema
        )
        assert_rows_match(actual, expected, context)
        total_outputs += len(expected)
    return n_queries, total_outputs


def run_multiquery_differential(
    seed: int, n_rounds: int, n_variants: int, n_tuples: int
) -> Tuple[int, int]:
    """Shared-prefix fan-out under churn: each round registers a family
    of scripts sharing one WHERE prefix on a **single** engine pair —
    the default (shared-plan) engine fed via random batch partitions
    against the seed per-query interpreted engine fed tuple-at-a-time —
    withdraws ~1/3 of the family at random batch boundaries, and
    compares every query's full drained output.  After each round all
    surviving queries withdraw and the shared plan must have released
    every DAG node.  Returns (total shared-plan node merges, outputs).
    """
    rng = random.Random(seed)
    fuzzer = StreamSQLFuzzer(rng)
    total_outputs = 0
    total_shared = 0
    for round_index in range(n_rounds):
        schema = fuzzer.schema()
        scripts = fuzzer.shared_prefix_scripts(schema, n_variants)
        records = fuzzer.records(schema, n_tuples)

        shared = StreamEngine()
        reference = StreamEngine.reference()
        queries = []
        for script in scripts:
            shared_handle = shared.register_streamsql(script)
            reference_handle = reference.register_streamsql(script)
            queries.append(
                {
                    "script": script,
                    "handles": (shared_handle, reference_handle),
                    "subs": (
                        shared.subscribe(shared_handle),
                        reference.subscribe(reference_handle),
                    ),
                }
            )

        sizes = fuzzer.partitions(len(records))
        withdraw_after: Dict[int, List[int]] = {}
        for query_index in rng.sample(
            range(len(queries)), k=max(1, len(queries) // 3)
        ):
            withdraw_after.setdefault(
                rng.randint(0, len(sizes)), []
            ).append(query_index)

        cursor = 0
        for batch_index, size in enumerate(sizes + [0]):
            for query_index in withdraw_after.get(batch_index, ()):
                for engine, handle in zip(
                    (shared, reference), queries[query_index]["handles"]
                ):
                    engine.withdraw(handle)
            batch = records[cursor:cursor + size]
            cursor += size
            shared.push_batch("sensor", batch)
            for record in batch:
                reference.push("sensor", record)

        withdrawn = {qi for group in withdraw_after.values() for qi in group}
        for query_index, query in enumerate(queries):
            context = (
                f"seed={seed} round={round_index} variant={query_index} "
                f"withdrawn={query_index in withdrawn}\n{query['script']}"
            )
            actual = query["subs"][0].drain()
            expected = query["subs"][1].drain()
            assert_rows_match(actual, expected, context)
            total_outputs += len(expected)

        for query_index, query in enumerate(queries):
            if query_index in withdrawn:
                continue
            for engine, handle in zip((shared, reference), query["handles"]):
                engine.withdraw(handle)
        (stats,) = shared.plan_stats().values()
        assert stats["queries"] == 0, f"seed={seed} round={round_index}"
        assert stats["live_nodes"] == 0, f"seed={seed} round={round_index}"
        total_shared += stats["nodes_shared"]
    return total_shared, total_outputs


class TestStreamSQLFuzz:
    """Seeded, bounded tier-1 passes (deterministic)."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_fuzz_compiled_matches_reference(self, seed):
        queries, outputs = run_differential(seed, n_queries=25, n_tuples=80)
        # A silent fuzzer is a broken fuzzer: the random workloads must
        # actually produce output tuples to compare.
        assert queries == 25
        assert outputs > 100

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_fuzz_multiquery_shared_matches_reference(self, seed):
        shared_nodes, outputs = run_multiquery_differential(
            seed, n_rounds=5, n_variants=6, n_tuples=60
        )
        assert outputs > 50
        # The family generator must actually produce prefix sharing,
        # or the differential is not testing the shared plan at all.
        assert shared_nodes > 0

    def test_generator_emits_every_stage_shape(self):
        """The grammar must cover filters, maps, tuple AND time windows."""
        rng = random.Random(7)
        fuzzer = StreamSQLFuzzer(rng)
        seen = set()
        for _ in range(200):
            script = fuzzer.query(fuzzer.schema())
            if "WHERE" in script.upper():
                seen.add("filter")
            if "[w_" in script:
                seen.add("window")
            if "TUPLES" in script.upper():
                seen.add("tuple-window")
            if "SECONDS" in script.upper():
                seen.add("time-window")
            upper = script.upper()
            if ", " in upper.split("INTO")[0] and "(" not in upper.split("FROM")[0].split("SELECT")[-1]:
                seen.add("map")
        assert {"filter", "window", "tuple-window", "time-window", "map"} <= seen


@pytest.mark.skipif(
    not os.environ.get("FUZZ_LONG"),
    reason="long randomized pass; set FUZZ_LONG=1 (CI nightly/manual fuzz job)",
)
class TestStreamSQLFuzzLong:
    """The nightly/manual deep pass: many more queries, longer streams,
    and a freely chosen seed so successive nights cover new ground."""

    def test_fuzz_long(self):
        seed = int(os.environ.get("FUZZ_SEED", random.SystemRandom().randint(0, 2**31)))
        print(f"FUZZ_SEED={seed} (set FUZZ_SEED to reproduce)")
        run_differential(seed, n_queries=200, n_tuples=400)

    def test_fuzz_long_multiquery(self):
        seed = int(os.environ.get("FUZZ_SEED", random.SystemRandom().randint(0, 2**31)))
        print(f"FUZZ_SEED={seed} (set FUZZ_SEED to reproduce)")
        run_multiquery_differential(seed, n_rounds=40, n_variants=12, n_tuples=200)
