"""Tokenizer shared by the domain (.dsml) and process (.dsproc) grammars.

Both languages use the same lexical vocabulary: identifiers, double-quoted
strings, numbers, a handful of punctuation tokens and ``#`` line comments.
A token is its text, and its kind is read from its first character: IDENT,
STRING, NUMBER, PUNCT, or EOF for the empty text that ends every token list.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .diagnostics import ParseError

# A token or a line break. In a string only \" and \\ are escapes; each
# backslash can be read one way only, so the body cannot backtrack into a
# shorter string ("a\" stays unterminated).
_WORD = r"""
    [A-Za-z_][A-Za-z0-9_]* | [{}\[\],:] | -> | \n
  | "[^"\\\n]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n]*)*"
  | [0-9]+(?:\.[0-9]+)?
"""
# One word per match, after blanks and a comment, which runs to the end of
# its line. Any other character starts an error that runs to the end of the
# source, so findall skips nothing but blanks and comments. The last match
# is the empty one at the end, after another one if blanks or a comment
# end the source.
_TOKEN = re.compile(rf"[ \t\r]*(?:\#[^\n]*)?({_WORD} | [^ \t\r\n][\s\S]* | \Z)", re.X)
_IS_WORD = re.compile(_WORD, re.X).fullmatch
_ESCAPE = re.compile(r'\\(["\\])')


class Tokens(list):
    """The token texts of ``source`` in order, EOF's ``""`` last; ``lines[i]``
    is the line of token ``i``."""

    __slots__ = ("source", "lines")

    def column(self, i: int) -> int:
        """Token ``i``'s column, found by re-scanning its line."""
        line = self.lines[i]
        matches = list(_TOKEN.finditer(self.source.split("\n")[line - 1]))
        return matches[i - bisect_left(self.lines, line)].start(1) + 1

    def error(self, i: int, message: str) -> ParseError:
        return ParseError(message, self.lines[i], self.column(i))

    def expected(self, i: int, what: str) -> ParseError:
        found = repr(value(self[i])) if self[i] else "end of input"
        return self.error(i, f"expected {what}, found {found}")


def tokenize(source: str) -> Tokens:
    """The tokens of ``source``; a character no token can start raises :class:`ParseError`."""
    found = _TOKEN.findall(source)
    if len(found) > 1 and not found[-2]:
        del found[-1]
    if len(found) > 1 and not _IS_WORD(found[-2]):
        at = len(source) - len(found[-2])
        line, column = source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)
        if source[at] == '"':
            raise ParseError("unterminated string literal", line, column)
        raise ParseError(f"unexpected character {source[at]!r}", line, column)
    tokens = Tokens()
    tokens.source = source
    tokens.lines = lines = []
    append, add_line = tokens.append, lines.append
    line = 1
    for text in found:
        if text == "\n":
            line += 1
        else:
            append(text)
            add_line(line)
    return tokens


def kind(text: str) -> str:
    """A token's kind, read from its first character."""
    first = text[:1]
    if first == '"':
        return "STRING"
    if first.isdigit():
        return "NUMBER"
    if text.isidentifier():
        return "IDENT"
    return "PUNCT" if first else "EOF"


def value(text: str) -> str:
    """A token's value: a STRING's text unescaped, any other token's as written."""
    if text[:1] != '"':
        return text
    text = text[1:-1]
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


_KINDS = ("IDENT", "STRING", "NUMBER")


def expect(tokens: Tokens, i: int, *wanted: str) -> int:
    """The index after ``wanted`` read from token ``i`` on, each a literal
    text or a kind (IDENT, STRING or NUMBER); the first token that differs
    raises :class:`ParseError`."""
    for want in wanted:
        is_kind = want in _KINDS
        if (kind(tokens[i]) if is_kind else tokens[i]) != want:
            raise tokens.expected(i, want if is_kind else repr(want))
        i += 1
    return i


def escape(text: str) -> str:
    """Escape ``text`` for use inside a string literal; :func:`tokenize` reads it back."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
