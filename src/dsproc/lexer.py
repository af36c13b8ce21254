"""Tokenizer shared by the domain (.dsml) and process (.dsproc) grammars.

Both languages use the same lexical vocabulary: identifiers, double-quoted
strings, numbers, a handful of punctuation tokens and ``#`` line comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .diagnostics import ParseError

_PUNCT_TWO = ("->",)
_PUNCT_ONE = "{}[],:"

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")
DIGITS = set("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | STRING | NUMBER | PUNCT | EOF
    value: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source[i : i + 2] in _PUNCT_TWO:
            tokens.append(Token("PUNCT", source[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT_ONE:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or source[i] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_col)
                c = source[i]
                if c == "\\" and i + 1 < n and source[i + 1] in ('"', "\\"):
                    buf.append(source[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                buf.append(c)
                i += 1
                col += 1
            tokens.append(Token("STRING", "".join(buf), start_line, start_col))
            continue
        if ch in DIGITS:
            start_col = col
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in DIGITS:
                j += 1
                while j < n and source[j] in DIGITS:
                    j += 1
            tokens.append(Token("NUMBER", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in IDENT_START:
            start_col = col
            j = i
            while j < n and source[j] in IDENT_CONT:
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def escape(text: str) -> str:
    """Escape ``text`` for use inside a string literal; :func:`tokenize` reads it back."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


class TokenStream:
    """Cursor over a token list with the usual expect/accept helpers."""

    def __init__(self, tokens: List[Token]):
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

    def accept(self, value: str) -> Optional[Token]:
        if self.at(value):
            return self.next()
        return None

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.column)
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.value if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {kind}, found {found!r}", tok.line, tok.column)
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
