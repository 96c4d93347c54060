"""Recursive-descent parser for filter conditions.

Grammar (standard precedence NOT > AND > OR)::

    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | primary
    primary   := '(' or_expr ')' | TRUE | comparison
    comparison:= IDENT op literal | literal op IDENT

The reversed form ``literal op IDENT`` (e.g. ``5 < rainrate``) is accepted
and normalised into the canonical ``IDENT op literal`` orientation.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExpressionSyntaxError
from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    Operator,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)
from repro.expr.lexer import Token, TokenType, tokenize

#: Orientation flip used when the literal appears on the left of the operator.
_MIRROR = {
    Operator.LT: Operator.GT,
    Operator.GT: Operator.LT,
    Operator.LE: Operator.GE,
    Operator.GE: Operator.LE,
    Operator.EQ: Operator.EQ,
    Operator.NE: Operator.NE,
}


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, token_type: TokenType) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise ExpressionSyntaxError(
                f"expected {token_type.value}, found {token.text or 'end of input'!r}",
                position=token.position,
            )
        return self._advance()

    def parse(self) -> BooleanExpression:
        expression = self._or_expr()
        end = self._peek()
        if end.type is not TokenType.END:
            raise ExpressionSyntaxError(
                f"unexpected trailing input {end.text!r}", position=end.position
            )
        return expression

    def _or_expr(self) -> BooleanExpression:
        parts = [self._and_expr()]
        while self._peek().type is TokenType.OR:
            self._advance()
            parts.append(self._and_expr())
        if len(parts) == 1:
            return parts[0]
        return OrExpression(tuple(parts))

    def _and_expr(self) -> BooleanExpression:
        parts = [self._not_expr()]
        while self._peek().type is TokenType.AND:
            self._advance()
            parts.append(self._not_expr())
        if len(parts) == 1:
            return parts[0]
        return AndExpression(tuple(parts))

    def _not_expr(self) -> BooleanExpression:
        if self._peek().type is TokenType.NOT:
            self._advance()
            return NotExpression(self._not_expr())
        return self._primary()

    def _primary(self) -> BooleanExpression:
        token = self._peek()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._or_expr()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.TRUE:
            self._advance()
            return TrueExpression()
        if token.type is TokenType.IDENT:
            return self._comparison_from_ident()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            return self._comparison_from_literal()
        raise ExpressionSyntaxError(
            f"expected a comparison, found {token.text or 'end of input'!r}",
            position=token.position,
        )

    def _comparison_from_ident(self) -> SimpleExpression:
        ident = self._advance()
        op_token = self._expect(TokenType.OP)
        op = Operator.parse(op_token.text)
        literal = self._peek()
        if literal.type not in (TokenType.NUMBER, TokenType.STRING):
            raise ExpressionSyntaxError(
                f"expected a literal after {op_token.text!r}, found {literal.text!r}",
                position=literal.position,
            )
        self._advance()
        return SimpleExpression(ident.value, op, literal.value)

    def _comparison_from_literal(self) -> SimpleExpression:
        literal = self._advance()
        op_token = self._expect(TokenType.OP)
        op = Operator.parse(op_token.text)
        ident = self._expect(TokenType.IDENT)
        return SimpleExpression(ident.value, _MIRROR[op], literal.value)


def parse_condition(text: str) -> BooleanExpression:
    """Parse a condition string into a :class:`BooleanExpression`.

    >>> parse_condition("rainrate > 5").to_condition_string()
    'rainrate > 5'
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty condition")
    return parse_tokens(list(tokenize(text)))


def parse_tokens(tokens: Sequence[Token]) -> BooleanExpression:
    """Parse already-read *tokens*, ending with an END token.

    A StreamSQL WHERE clause comes here as the script's own tokens, so
    an error's ``position`` is an offset into the script.
    """
    return _Parser(tokens).parse()
