"""Tokenizer shared by the domain (.dsml) and process (.dsproc) grammars.

Both languages use the same lexical vocabulary: identifiers, double-quoted
strings, numbers, a handful of punctuation tokens and ``#`` line comments.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .diagnostics import ParseError

# One token per match, after a prefix of blanks. A comment runs to the end
# of its line; any other non-blank character is an error, so finditer skips
# nothing but blanks. In a string only \" and \\ are escapes; each backslash
# can be read one way only, so the body cannot backtrack into a shorter
# string ("a\" stays unterminated).
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?:
        (?P<PUNCT>->|[{}\[\],:])
      | (?P<STRING>"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*")
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<COMMENT>\#.*)
      | (?P<ERROR>[^ \t\r])
    )
""", re.X)
_ESCAPE = re.compile(r'\\(["\\])')


class Token(namedtuple("Token", "kind value line column")):
    """``kind`` is IDENT, STRING, NUMBER, PUNCT or EOF."""

    __slots__ = ()

    def describe(self) -> str:
        """The token as an error message's ``found …`` names it."""
        return "end of input" if self.kind == "EOF" else repr(self.value)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            value = m[kind]
            column = m.start(kind) + 1
            if kind == "STRING":
                value = _ESCAPE.sub(r"\1", value[1:-1])
            elif kind == "COMMENT":
                break
            elif kind == "ERROR":
                if value == '"':
                    raise ParseError("unterminated string literal", line, column)
                raise ParseError(f"unexpected character {value!r}", line, column)
            tokens.append(Token(kind, value, line, column))
    tokens.append(Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens


def escape(text: str) -> str:
    """Escape ``text`` for use inside a string literal; :func:`tokenize` reads it back."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


class TokenStream:
    """Cursor over a token list with the usual expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind in ("PUNCT", "IDENT") and tok.value == value

    def accept(self, value: str) -> Token | None:
        if self.at(value):
            return self.next()
        return None

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            raise ParseError(f"expected {value!r}, found {tok.describe()}", tok.line, tok.column)
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.describe()}", tok.line, tok.column)
        return self.next()

    def expect_ident(self) -> Token:
        return self.expect_kind("IDENT")

    def expect_string(self) -> Token:
        return self.expect_kind("STRING")

    def expect_number(self) -> float:
        tok = self.expect_kind("NUMBER")
        return float(tok.value)

    def at_eof(self) -> bool:
        return self.peek().kind == "EOF"


def stream(source: str) -> TokenStream:
    return TokenStream(tokenize(source))
