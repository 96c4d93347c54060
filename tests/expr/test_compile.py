"""Unit tests for schema-specialised condition compilation."""

import pytest

from repro.errors import ExpressionTypeError, UnknownAttributeError
from repro.expr.ast import Operator, SimpleExpression
from repro.expr.compile import compile_batch
from repro.expr.evaluate import evaluate
from repro.expr.parser import parse_condition
from repro.streams.schema import Schema
from repro.streams.tuples import make_tuple

SCHEMA = Schema(
    "s", [("t", "timestamp"), ("x", "double"), ("n", "int"), ("tag", "string")]
)


def single_verdict(expression, schema):
    """One tuple's verdict through the batch mask — the only compiled
    form there is (a bound filter runs it over whole batches)."""
    mask = compile_batch(expression, schema)
    return lambda tup: mask([tup])[0]


def tuples(*rows):
    return [
        make_tuple(SCHEMA, {"t": float(i), "x": x, "n": n, "tag": tag})
        for i, (x, n, tag) in enumerate(rows)
    ]


class TestCompiledSemantics:
    CONDITIONS = [
        "TRUE",
        "x > 2",
        "x <= 2 AND n != 3",
        "x > 10 OR tag = 'a'",
        "NOT (x > 2 AND tag != 'b')",
        "n >= 1 AND (tag = 'a' OR tag = 'b') AND x < 100",
    ]

    @pytest.mark.parametrize("text", CONDITIONS)
    def test_matches_interpreter(self, text):
        expression = parse_condition(text)
        mask = compile_batch(expression, SCHEMA)
        batch = tuples((1.0, 1, "a"), (3.0, 3, "b"), (2.0, 0, "c"), (50.0, 9, "a"))
        assert mask(batch) == [evaluate(expression, tup) for tup in batch]

    def test_empty_batch_mask(self):
        mask = compile_batch(parse_condition("x > 2"), SCHEMA)
        assert mask([]) == []

    def test_short_circuit_like_interpreter(self):
        expression = parse_condition("x > 1 AND n > 2")
        predicate = single_verdict(expression, SCHEMA)
        batch = tuples((0.0, 99, "a"))
        assert predicate(batch[0]) is evaluate(expression, batch[0]) is False

    def test_case_insensitive_attribute_resolution(self):
        expression = parse_condition("TAG = 'a' AND X > 0")
        predicate = single_verdict(expression, SCHEMA)
        batch = tuples((1.0, 1, "a"), (1.0, 1, "b"))
        assert [predicate(tup) for tup in batch] == [True, False]


class TestCompileValidation:
    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttributeError):
            single_verdict(parse_condition("zz > 1"), SCHEMA)

    def test_string_numeric_mismatch(self):
        with pytest.raises(ExpressionTypeError):
            single_verdict(parse_condition("tag != 3"), SCHEMA)
        with pytest.raises(ExpressionTypeError):
            single_verdict(
                SimpleExpression("x", Operator.EQ, "abc"), SCHEMA
            )

    def test_boolean_attribute_rejected(self):
        schema = Schema("b", [("flag", "bool"), ("x", "int")])
        with pytest.raises(ExpressionTypeError):
            single_verdict(parse_condition("flag = 1"), schema)


class TestCompileSafety:
    def test_string_literals_cannot_escape(self):
        """Hostile string literals are embedded via repr, never spliced."""
        payload = "') or __import__('os').system('true') or ('"
        expression = SimpleExpression("tag", Operator.EQ, payload)
        predicate = single_verdict(expression, SCHEMA)
        match = make_tuple(SCHEMA, {"t": 0.0, "x": 0.0, "n": 0, "tag": payload})
        miss = make_tuple(SCHEMA, {"t": 0.0, "x": 0.0, "n": 0, "tag": "a"})
        assert predicate(match) is True
        assert predicate(miss) is False

    def test_non_finite_literals_ride_constants(self):
        expression = SimpleExpression("x", Operator.NE, float("nan"))
        predicate = single_verdict(expression, SCHEMA)
        tup = make_tuple(SCHEMA, {"t": 0.0, "x": 1.0, "n": 0, "tag": "a"})
        assert predicate(tup) is evaluate(expression, tup) is True
