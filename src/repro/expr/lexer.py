"""The one tokenizer for conditions and StreamSQL scripts.

It reads the condition syntax used throughout the paper: identifiers,
numeric literals (optional sign, decimals, exponent), single-quoted
string literals with ``''`` as the escaped quote, the six comparison
operators (plus ``==`` and ``<>`` aliases), AND / OR / NOT (case
insensitive), TRUE, and parentheses.  It also reads the rest of the
StreamSQL script syntax: ``[ ] , ; . *`` and ``--`` comments, which run
to the end of the line and become :attr:`TokenType.COMMENT` tokens.

A WHERE clause is therefore read from the script's own tokens: the
StreamSQL parser drops comments and hands the clause to
:func:`repro.expr.parser.parse_tokens`, whose grammar refuses every
token it has no place for (a comment inside a condition string among
them).
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from repro.errors import ExpressionSyntaxError


class TokenType(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    AND = "and"
    OR = "or"
    NOT = "not"
    TRUE = "true"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    STAR = "*"
    COMMENT = "comment"
    END = "end"


class Token(NamedTuple):
    type: TokenType
    text: str
    value: object
    position: int


_KEYWORDS = {
    "and": TokenType.AND,
    "or": TokenType.OR,
    "not": TokenType.NOT,
    "true": TokenType.TRUE,
}

_PUNCT = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    "*": TokenType.STAR,
}

_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", "==")
_ONE_CHAR_OPS = ("<", ">", "=")


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens for *text*, ending with a single END token."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            yield Token(_PUNCT[ch], ch, None, i)
            i += 1
            continue
        two = text[i : i + 2]
        if two == "--":
            end = text.find("\n", i)
            end = n if end < 0 else end
            yield Token(TokenType.COMMENT, text[i:end], None, i)
            i = end
            continue
        if two in _TWO_CHAR_OPS:
            yield Token(TokenType.OP, two, None, i)
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            yield Token(TokenType.OP, ch, None, i)
            i += 1
            continue
        if ch == "'":
            literal, consumed = _read_string(text, i)
            yield Token(TokenType.STRING, text[i : i + consumed], literal, i)
            i += consumed
            continue
        if ch.isdigit() or (ch in "+-." and _starts_number(text, i)):
            value, consumed = _read_number(text, i)
            yield Token(TokenType.NUMBER, text[i : i + consumed], value, i)
            i += consumed
            continue
        if ch == ".":
            yield Token(TokenType.DOT, ".", None, i)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = _KEYWORDS.get(word.lower(), TokenType.IDENT)
            yield Token(kind, word, word.lower(), i)
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", position=i)
    yield Token(TokenType.END, "", None, n)


def _starts_number(text: str, i: int) -> bool:
    """True when a sign or dot at *i* begins a numeric literal."""
    j = i + 1
    return j < len(text) and (text[j].isdigit() or (text[i] != "." and text[j] == "."))


def _read_string(text: str, start: int):
    """Read a single-quoted string literal with '' as the escape for '."""
    i = start + 1
    parts = []
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if i + 1 < len(text) and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1 - start
        parts.append(ch)
        i += 1
    raise ExpressionSyntaxError("unterminated string literal", position=start)


def _read_number(text: str, start: int):
    """Read an int or float literal (optional sign, decimals, exponent)."""
    i = start
    n = len(text)
    if text[i] in "+-":
        i += 1
    digits_start = i
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > digits_start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    literal = text[start:i]
    try:
        value: object = float(literal) if (seen_dot or seen_exp) else int(literal)
    except ValueError:
        raise ExpressionSyntaxError(f"bad numeric literal {literal!r}", position=start) from None
    return value, i - start
