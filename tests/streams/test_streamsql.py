"""Tests for the StreamSQL dialect: tokens, parser, generator, round trip."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.errors import ExpressionSyntaxError, StreamSQLError
from repro.expr.ast import Operator, SimpleExpression
from repro.expr.lexer import TokenType, tokenize
from repro.expr.parser import parse_condition
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA, DataType
from repro.streams.streamsql.generator import generate_streamsql
from repro.streams.streamsql.parser import parse_script, parse_streamsql
from tests.conftest import build_nea_policy_graph

#: The paper's Figure 4(b) script (typos normalised).
FIGURE_4B = """
CREATE INPUT STREAM weather (
  samplingtime timestamp, temperature double,
  humidity double, rainrate double,
  windspeed double, winddirection int,
  barometer double);
CREATE STREAM internal_0;
SELECT * FROM weather WHERE rainrate > 50 INTO internal_0;
CREATE OUTPUT STREAM internal_1;
SELECT internal_0.samplingtime, internal_0.rainrate,
FROM internal_0 INTO internal_1;
CREATE OUTPUT STREAM output;
CREATE WINDOW _10tuple (SIZE 10 ADVANCE 2 TUPLES);
SELECT lastval(samplingtime) AS lastvalsamplingtime,
  avg(rainrate) AS avgrainrate
FROM internal_1[_10tuple] INTO output;
"""


class TestLexer:
    """A script is read by the one tokenizer, ``repro.expr.lexer.tokenize``."""

    def test_statement_tokens(self):
        tokens = list(tokenize("SELECT * FROM w INTO o;"))
        kinds = [t.type for t in tokens[:-1]]
        assert kinds == [
            TokenType.IDENT, TokenType.STAR, TokenType.IDENT,
            TokenType.IDENT, TokenType.IDENT, TokenType.IDENT,
            TokenType.SEMI,
        ]

    def test_comments_skipped(self):
        tokens = list(tokenize("SELECT -- comment\n *"))
        assert tokens[1].type is TokenType.COMMENT
        assert tokens[1].text == "-- comment"
        tokens = [t for t in tokens if t.type is not TokenType.COMMENT]
        assert len(tokens) == 3  # SELECT, *, END
        assert len(parse_script("SELECT -- comment\n * FROM w -- x\nINTO o;").statements) == 1

    def test_line_column_tracking(self):
        with pytest.raises(StreamSQLError) as at_bb:
            parse_script("SELECT *\nbb ccc")
        assert at_bb.value.line == 2
        with pytest.raises(StreamSQLError) as at_ccc:
            parse_script("SELECT * FROM\nbb ccc")
        assert at_ccc.value.column == 4

    def test_bad_character(self):
        with pytest.raises(StreamSQLError):
            parse_script("SELECT $")


def where_condition(where):
    script = parse_script(f"SELECT * FROM w WHERE {where} INTO o;")
    return script.statements[0].condition


class TestWhereClause:
    """A WHERE clause is read from the script's own tokens."""

    def test_dotted_string_literal_is_kept(self):
        assert where_condition("city = 'sg.west'") == SimpleExpression(
            "city", Operator.EQ, "sg.west"
        )

    def test_generated_negative_literal_parses(self):
        graph = QueryGraph("weather").append(FilterOperator("temperature > -5"))
        sql = generate_streamsql(graph, WEATHER_SCHEMA)
        assert "WHERE temperature > -5 INTO" in sql
        condition = parse_streamsql(sql).graph.filter_operator.condition
        assert condition == SimpleExpression("temperature", Operator.GT, -5)

    def test_comment_between_conjuncts(self):
        condition = where_condition("rainrate > 5 -- heavy rain\n AND w.windspeed < 3")
        assert condition.to_condition_string() == "rainrate > 5 AND windspeed < 3"

    def test_qualifiers_dropped_from_the_tokens(self):
        condition = where_condition("w . rainrate > 5 OR (internal_0.city = 'a.b')")
        assert condition.to_condition_string() == "rainrate > 5 OR city = 'a.b'"

    def test_condition_error_at_script_line_and_column(self):
        with pytest.raises(StreamSQLError) as excinfo:
            parse_script("SELECT * FROM w\nWHERE rainrate >> 5 INTO o;")
        assert (excinfo.value.line, excinfo.value.column) == (2, 17)
        with pytest.raises(StreamSQLError) as excinfo:
            parse_script("SELECT * FROM w WHERE city > 'a' INTO o;")
        assert (excinfo.value.line, excinfo.value.column) == (1, 23)

    def test_condition_grammar_refuses_comments(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_condition("rainrate > 5 -- x")

    def test_names_spelled_like_condition_keywords(self):
        script = parse_script(
            "CREATE STREAM and;\n"
            "SELECT not, or AS true FROM and WHERE not.x > 1 INTO or;"
        )
        select = script.statements[1]
        assert [item.attribute for item in select.items] == ["not", "or"]
        assert (select.source, select.target) == ("and", "or")
        assert select.condition == SimpleExpression("x", Operator.GT, 1)


class TestParsePaperScript:
    def test_figure_4b_parses(self):
        parsed = parse_streamsql(FIGURE_4B)
        kinds = [op.kind for op in parsed.graph.operators]
        assert kinds == ["filter", "map", "aggregate"]
        assert parsed.graph.source == "weather"
        assert parsed.output_name == "output"

    def test_figure_4b_details(self):
        parsed = parse_streamsql(FIGURE_4B)
        graph = parsed.graph
        assert graph.filter_operator.condition.to_condition_string() == "rainrate > 50"
        assert graph.map_operator.attributes == ("samplingtime", "rainrate")
        aggregate = graph.aggregate_operator
        assert aggregate.window == WindowSpec(WindowType.TUPLE, 10, 2)
        assert [s.to_obligation_value() for s in aggregate.aggregations] == [
            "samplingtime:lastval", "rainrate:avg",
        ]

    def test_input_schema_extracted(self):
        parsed = parse_streamsql(FIGURE_4B)
        assert parsed.input_schema is not None
        assert parsed.input_schema.field("samplingtime").dtype is DataType.TIMESTAMP
        assert len(parsed.input_schema) == 7


class TestParserErrors:
    def test_no_select(self):
        with pytest.raises(StreamSQLError):
            parse_streamsql("CREATE STREAM a;")

    def test_two_chain_heads(self):
        script = (
            "SELECT * FROM a WHERE x > 1 INTO o1;\n"
            "SELECT * FROM b WHERE x > 1 INTO o2;\n"
        )
        with pytest.raises(StreamSQLError):
            parse_streamsql(script)

    def test_cycle_detected(self):
        script = (
            "SELECT * FROM a WHERE x > 1 INTO b;\n"
            "SELECT * FROM b WHERE x > 1 INTO a;\n"
        )
        with pytest.raises(StreamSQLError):
            parse_streamsql(script)

    def test_undefined_window(self):
        script = "SELECT avg(x) FROM s[w] INTO o;"
        with pytest.raises(StreamSQLError):
            parse_streamsql(script)

    def test_aggregate_without_window(self):
        script = "SELECT avg(x) FROM s INTO o;"
        with pytest.raises(StreamSQLError):
            parse_streamsql(script)

    def test_windowed_select_requires_functions(self):
        script = (
            "CREATE WINDOW w (SIZE 2 ADVANCE 2 TUPLES);\n"
            "SELECT x FROM s[w] INTO o;"
        )
        with pytest.raises(StreamSQLError):
            parse_streamsql(script)

    def test_missing_into(self):
        with pytest.raises(StreamSQLError):
            parse_streamsql("SELECT * FROM s WHERE x > 1;")

    def test_statement_level_parse(self):
        script = parse_script("CREATE STREAM a;\nCREATE OUTPUT STREAM b;")
        assert len(script.statements) == 2

    @pytest.mark.parametrize("script,at,message", [
        ("CREATE WINDOW w (SIZE 4\n  ADVANCE 0 TUPLES);", (2, 11), "positive integer, found '0'"),
        ("CREATE WINDOW w (SIZE 0 ADVANCE 2 SECONDS);", (1, 23), "positive integer, found '0'"),
        ("CREATE INPUT STREAM s (x int,\n  X double);", (2, 3), "duplicate field 'X' in schema 's'"),
        ("CREATE INPUT STREAM s (x int, y decimal);", (1, 33), "unknown data type 'decimal'"),
        ("CREATE STREAM t (x int, x int);", (1, 25), "duplicate field 'x' in schema 't'"),
    ])
    def test_a_bad_declaration_is_refused_at_its_line_and_column(self, script, at, message):
        """These raised a bare ``StreamError`` / ``SchemaError``, with no
        position, out of the window and schema declarations."""
        with pytest.raises(StreamSQLError, match=message) as excinfo:
            parse_script(script)
        assert (excinfo.value.line, excinfo.value.column) == at


class TestGenerator:
    def test_nea_graph_generates_paper_shape(self):
        graph = build_nea_policy_graph()
        sql = generate_streamsql(graph, WEATHER_SCHEMA)
        assert "CREATE INPUT STREAM weather" in sql
        assert "SELECT * FROM weather WHERE rainrate > 5 INTO internal_0;" in sql
        assert "CREATE WINDOW" in sql
        assert "SIZE 5 ADVANCE 2 TUPLES" in sql
        assert "lastval(samplingtime) AS lastvalsamplingtime" in sql
        assert sql.count("SELECT") == 3

    def test_passthrough_graph(self):
        sql = generate_streamsql(QueryGraph("weather"))
        assert "WHERE TRUE" in sql

    def test_filter_only(self):
        graph = QueryGraph("weather").append(FilterOperator("rainrate > 5"))
        sql = generate_streamsql(graph)
        assert "CREATE OUTPUT STREAM output;" in sql
        assert "internal_0" not in sql


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: QueryGraph("weather").append(FilterOperator("rainrate > 5")),
            lambda: QueryGraph("weather").append(MapOperator(["rainrate", "windspeed"])),
            lambda: QueryGraph("weather").append(
                AggregateOperator(
                    WindowSpec(WindowType.TUPLE, 7, 3),
                    [AggregationSpec.parse("rainrate:avg")],
                )
            ),
            build_nea_policy_graph,
        ],
        ids=["filter", "map", "aggregate", "full-chain"],
    )
    def test_generate_then_parse(self, make_graph):
        graph = make_graph()
        sql = generate_streamsql(graph, WEATHER_SCHEMA)
        parsed = parse_streamsql(sql)
        assert [op.kind for op in parsed.graph.operators] == [
            op.kind for op in graph.operators
        ]
        original_filter = graph.filter_operator
        if original_filter is not None:
            assert (
                parsed.graph.filter_operator.condition.to_condition_string()
                == original_filter.condition.to_condition_string()
            )
        original_map = graph.map_operator
        if original_map is not None:
            assert parsed.graph.map_operator.attribute_set() == original_map.attribute_set()
        original_aggregate = graph.aggregate_operator
        if original_aggregate is not None:
            reparsed = parsed.graph.aggregate_operator
            assert reparsed.window == original_aggregate.window
            assert {s.key for s in reparsed.aggregations} == {
                s.key for s in original_aggregate.aggregations
            }

    def test_time_window_round_trip(self):
        graph = QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TIME, 60, 30),
                [AggregationSpec.parse("temperature:avg")],
            )
        )
        sql = generate_streamsql(graph, WEATHER_SCHEMA)
        assert "SECONDS" in sql
        parsed = parse_streamsql(sql)
        assert parsed.graph.aggregate_operator.window.window_type is WindowType.TIME


class TestOneTokenizer:
    """``repro.expr.lexer.tokenize`` is the only tokenizer under ``src/``:
    the StreamSQL lexer and its WHERE-clause qualifier regex are gone."""

    SRC = Path(repro.__file__).resolve().parent

    def test_streamsql_lexer_is_gone(self):
        assert not (self.SRC / "streams" / "streamsql" / "lexer.py").exists()
        parser_source = (self.SRC / "streams" / "streamsql" / "parser.py").read_text()
        assert "_strip_qualifiers" not in parser_source
        assert "import re" not in parser_source

    def test_one_tokenize_and_one_token_type(self):
        found = set()
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                if named and re.fullmatch(r"\w*(tokeni[sz]e\w*|Token|TokenType)", node.name):
                    found.add((path.relative_to(self.SRC).as_posix(), node.name))
        assert found == {
            ("expr/lexer.py", "tokenize"),
            ("expr/lexer.py", "Token"),
            ("expr/lexer.py", "TokenType"),
        }
