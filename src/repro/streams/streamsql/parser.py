"""Parser: StreamSQL scripts → statements → a QueryGraph.

Parsing happens in two phases.  Phase 1 turns the token stream into
statement objects (:mod:`repro.streams.streamsql.ast`).  Phase 2 links the
``SELECT ... INTO ...`` chain from the input stream to the final output
stream and lowers each SELECT into Aurora boxes:

- ``SELECT * ... WHERE c``        → filter(c)
- ``SELECT a, b ...``             → map(a, b)   (with an optional filter first)
- ``SELECT f(a), g(b) FROM s[w]`` → window aggregation
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, NoReturn, Optional, Tuple

from repro.errors import ExpressionError, ExpressionSyntaxError, SchemaError, StreamSQLError
from repro.expr.ast import BooleanExpression
from repro.expr.lexer import Token, TokenType, tokenize
from repro.expr.parser import parse_tokens
from repro.streams.graph import QueryGraph
from repro.streams.operators.aggregate import get_aggregate_function
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import Field, Schema
from repro.streams.streamsql import ast as sql_ast

#: Token types a script name may have: a stream, field or window may be
#: spelled like a condition keyword (``and``, ``not``, ``true``).
_WORDS = frozenset(
    (TokenType.IDENT, TokenType.AND, TokenType.OR, TokenType.NOT, TokenType.TRUE)
)


class ParsedScript(NamedTuple):
    """Result of parsing one script: the query graph and input schema.

    ``input_schema`` is None when the script contains no
    ``CREATE INPUT STREAM`` (the stream is expected to pre-exist in the
    engine catalog).
    """

    graph: QueryGraph
    input_schema: Optional[Schema]
    output_name: str


class _TokenCursor:
    """The script's tokens, comments dropped.

    A token carries only its offset into the script; :meth:`where` works
    out the line and column when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        try:
            tokens = list(tokenize(text))
        except ExpressionSyntaxError as exc:
            raise StreamSQLError(exc.reason, **self.where(exc.position)) from exc
        self._tokens = [t for t in tokens if t.type is not TokenType.COMMENT]
        self._index = 0

    def where(self, position: int) -> Dict[str, int]:
        """``line`` and ``column`` (both from 1) of *position*."""
        return {
            "line": self.text.count("\n", 0, position) + 1,
            "column": position - self.text.rfind("\n", 0, position),
        }

    def peek(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.END:
            self._index += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.type in _WORDS and token.text.upper() in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            self.refuse(word)
        return self.advance()

    def expect(self, token_type: TokenType) -> Token:
        if self.peek().type is not token_type:
            self.refuse(repr(token_type.value))
        return self.advance()

    def expect_ident(self) -> Token:
        if self.peek().type not in _WORDS:
            self.refuse("an identifier")
        return self.advance()

    def refuse(self, wanted: str) -> NoReturn:
        token = self.peek()
        raise StreamSQLError(
            f"expected {wanted}, found {token.text or 'end of script'!r}",
            **self.where(token.position),
        )

    @property
    def done(self) -> bool:
        return self.peek().type is TokenType.END


def parse_script(text: str) -> sql_ast.Script:
    """Phase 1: parse *text* into a list of statements."""
    cursor = _TokenCursor(text)
    statements: List[object] = []
    while not cursor.done:
        if cursor.at_keyword("CREATE"):
            statements.append(_parse_create(cursor))
        elif cursor.at_keyword("SELECT"):
            statements.append(_parse_select(cursor))
        else:
            cursor.refuse("CREATE or SELECT")
    return sql_ast.Script(statements)


def _parse_create(cursor: _TokenCursor):
    cursor.expect_keyword("CREATE")
    if cursor.at_keyword("WINDOW"):
        return _parse_create_window(cursor)
    is_input = False
    is_output = False
    if cursor.at_keyword("INPUT"):
        cursor.advance()
        is_input = True
    elif cursor.at_keyword("OUTPUT"):
        cursor.advance()
        is_output = True
    cursor.expect_keyword("STREAM")
    name = cursor.expect_ident().text
    if is_input:
        schema = _parse_schema_fields(cursor, name)
        cursor.expect(TokenType.SEMI)
        return sql_ast.CreateInputStream(schema)
    # CREATE [OUTPUT] STREAM name [(fields)] ;  — fields optional for
    # internal/output streams (the engine infers their schemas).
    if cursor.peek().type is TokenType.LPAREN:
        _parse_schema_fields(cursor, name)
    cursor.expect(TokenType.SEMI)
    return sql_ast.CreateStream(name, is_output)


def _parse_schema_fields(cursor: _TokenCursor, stream_name: str) -> Schema:
    cursor.expect(TokenType.LPAREN)
    fields: Dict[str, Field] = {}
    while True:
        name, type_name = cursor.expect_ident(), cursor.expect_ident()
        try:
            if name.text.lower() in fields:
                raise SchemaError(f"duplicate field {name.text!r} in schema {stream_name!r}")
            fields[name.text.lower()] = Field(name.text, type_name.text)
        except SchemaError as exc:
            at = name if name.text.lower() in fields else type_name
            raise StreamSQLError(str(exc), **cursor.where(at.position)) from exc
        if cursor.peek().type is TokenType.COMMA:
            cursor.advance()
            continue
        break
    cursor.expect(TokenType.RPAREN)
    return Schema(stream_name, fields.values())


def _parse_create_window(cursor: _TokenCursor) -> sql_ast.CreateWindow:
    cursor.expect_keyword("WINDOW")
    name = cursor.expect_ident().text
    cursor.expect(TokenType.LPAREN)
    cursor.expect_keyword("SIZE")
    size = _expect_int(cursor)
    cursor.expect_keyword("ADVANCE")
    step = _expect_int(cursor)
    if cursor.at_keyword("TUPLE", "TUPLES"):
        window_type = WindowType.TUPLE
    elif cursor.at_keyword("SECOND", "SECONDS", "TIME"):
        window_type = WindowType.TIME
    else:
        cursor.refuse("TUPLES or SECONDS")
    cursor.advance()
    cursor.expect(TokenType.RPAREN)
    cursor.expect(TokenType.SEMI)
    return sql_ast.CreateWindow(name, WindowSpec(window_type, size, step))


def _expect_int(cursor: _TokenCursor) -> int:
    token = cursor.peek()
    if token.type is not TokenType.NUMBER or not token.text.isdigit() or not int(token.text):
        cursor.refuse("a positive integer")
    return cursor.advance().value


def _parse_select(cursor: _TokenCursor) -> sql_ast.SelectStatement:
    cursor.expect_keyword("SELECT")
    star = False
    items: List[sql_ast.SelectItem] = []
    if cursor.peek().type is TokenType.STAR:
        cursor.advance()
        star = True
    else:
        while True:
            items.append(_parse_select_item(cursor))
            if cursor.peek().type is TokenType.COMMA:
                cursor.advance()
                # Tolerate a trailing comma before FROM (the paper's own
                # Figure 4(b) contains one).
                if cursor.at_keyword("FROM"):
                    break
                continue
            break
    cursor.expect_keyword("FROM")
    source = cursor.expect_ident().text
    window_name: Optional[str] = None
    if cursor.peek().type is TokenType.LBRACKET:
        cursor.advance()
        window_name = cursor.expect_ident().text
        cursor.expect(TokenType.RBRACKET)
    condition: Optional[BooleanExpression] = None
    if cursor.at_keyword("WHERE"):
        cursor.advance()
        condition = _parse_where(cursor)
    cursor.expect_keyword("INTO")
    target = cursor.expect_ident().text
    cursor.expect(TokenType.SEMI)
    return sql_ast.SelectStatement(
        star, tuple(items), source, window_name, condition, target
    )


def _parse_select_item(cursor: _TokenCursor) -> sql_ast.SelectItem:
    first = cursor.expect_ident()
    function: Optional[str] = None
    attribute = first.text
    if cursor.peek().type is TokenType.LPAREN:
        function = first.text
        cursor.advance()
        attribute = _parse_attribute_ref(cursor)
        cursor.expect(TokenType.RPAREN)
    elif cursor.peek().type is TokenType.DOT:
        cursor.advance()
        attribute = cursor.expect_ident().text  # drop the stream qualifier
    alias: Optional[str] = None
    if cursor.at_keyword("AS"):
        cursor.advance()
        alias = cursor.expect_ident().text
    return sql_ast.SelectItem(attribute, function, alias)


def _parse_attribute_ref(cursor: _TokenCursor) -> str:
    name = cursor.expect_ident().text
    if cursor.peek().type is TokenType.DOT:
        cursor.advance()
        name = cursor.expect_ident().text
    return name


def _parse_where(cursor: _TokenCursor) -> BooleanExpression:
    """Parse a WHERE clause from the script's own tokens.

    The clause runs to the INTO keyword outside parentheses.  Each stream
    qualifier (``internal_0.`` in ``internal_0.rainrate``) is dropped and
    the rest goes to :func:`repro.expr.parser.parse_tokens`, the one
    grammar for conditions; its error is raised at the script's line and
    column.
    """
    clause: List[Token] = []
    depth = 0
    while depth or not cursor.at_keyword("INTO"):
        token = cursor.advance()
        if token.type is TokenType.END:
            raise StreamSQLError(
                "WHERE clause not terminated by INTO", **cursor.where(token.position)
            )
        if token.type is TokenType.LPAREN:
            depth += 1
        elif token.type is TokenType.RPAREN:
            depth -= 1
        elif token.type in _WORDS and cursor.peek().type is TokenType.DOT:
            cursor.advance()
            continue
        clause.append(token)
    clause.append(Token(TokenType.END, "", None, cursor.peek().position))
    try:
        return parse_tokens(clause)
    except ExpressionSyntaxError as exc:
        raise StreamSQLError(exc.reason, **cursor.where(exc.position)) from exc
    except ExpressionError as exc:
        raise StreamSQLError(str(exc), **cursor.where(clause[0].position)) from exc


# ---------------------------------------------------------------------------
# Phase 2: lower statements into a QueryGraph
# ---------------------------------------------------------------------------

def parse_streamsql(text: str) -> ParsedScript:
    """Parse a full script into a :class:`ParsedScript`.

    The script must contain a single chain of SELECT statements leading
    from one source stream to one final target; branching scripts are
    rejected (the paper's PEP only ever emits chains).
    """
    script = parse_script(text)
    input_schema: Optional[Schema] = None
    windows: Dict[str, WindowSpec] = {}
    selects: List[sql_ast.SelectStatement] = []
    declared: Dict[str, bool] = {}

    for statement in script.statements:
        if isinstance(statement, sql_ast.CreateInputStream):
            if input_schema is not None:
                raise StreamSQLError("script declares more than one INPUT STREAM")
            input_schema = statement.schema
            declared[statement.schema.name.lower()] = True
        elif isinstance(statement, sql_ast.CreateStream):
            declared[statement.name.lower()] = True
        elif isinstance(statement, sql_ast.CreateWindow):
            windows[statement.name.lower()] = statement.spec
        elif isinstance(statement, sql_ast.SelectStatement):
            selects.append(statement)

    if not selects:
        raise StreamSQLError("script contains no SELECT statement")

    chain, source, output_name = _order_chain(selects)
    graph = QueryGraph(source)
    for select in chain:
        for operator in _lower_select(select, windows):
            graph.append(operator)
    return ParsedScript(graph, input_schema, output_name)


def _order_chain(
    selects: List[sql_ast.SelectStatement],
) -> Tuple[List[sql_ast.SelectStatement], str, str]:
    by_source: Dict[str, sql_ast.SelectStatement] = {}
    targets = set()
    for select in selects:
        key = select.source.lower()
        if key in by_source:
            raise StreamSQLError(f"stream {select.source!r} feeds two SELECT statements")
        by_source[key] = select
        targets.add(select.target.lower())
    roots = [s for s in selects if s.source.lower() not in targets]
    if len(roots) != 1:
        raise StreamSQLError(
            f"script must form a single SELECT chain; found {len(roots)} chain heads"
        )
    chain: List[sql_ast.SelectStatement] = []
    current = roots[0]
    seen = set()
    while True:
        if id(current) in seen:
            raise StreamSQLError("SELECT statements form a cycle")
        seen.add(id(current))
        chain.append(current)
        next_select = by_source.get(current.target.lower())
        if next_select is None:
            break
        current = next_select
    if len(chain) != len(selects):
        raise StreamSQLError("script contains SELECT statements outside the main chain")
    return chain, roots[0].source, chain[-1].target


def _lower_select(
    select: sql_ast.SelectStatement, windows: Dict[str, WindowSpec]
) -> List[object]:
    operators: List[object] = []
    if select.condition is not None:
        operators.append(FilterOperator(select.condition))
    if select.window_name is not None:
        spec = windows.get(select.window_name.lower())
        if spec is None:
            raise StreamSQLError(f"undefined window {select.window_name!r}")
        aggregations = []
        for item in select.items:
            if item.function is None:
                raise StreamSQLError(
                    f"windowed SELECT must aggregate every column; "
                    f"{item.attribute!r} has no aggregate function"
                )
            aggregations.append(
                AggregationSpec(item.attribute, get_aggregate_function(item.function))
            )
        if select.star or not aggregations:
            raise StreamSQLError("windowed SELECT cannot use *")
        operators.append(AggregateOperator(spec, aggregations))
        return operators
    if select.star:
        if select.condition is None:
            raise StreamSQLError(
                f"SELECT * FROM {select.source} without WHERE or window is a no-op"
            )
        return operators
    if any(item.function is not None for item in select.items):
        raise StreamSQLError("aggregate functions require a [window] on the source")
    operators.append(MapOperator([item.attribute for item in select.items]))
    return operators
