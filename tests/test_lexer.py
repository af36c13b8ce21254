import pytest
from hypothesis import given, strategies as st

from dsproc import domain as dom, lexer, process as proc
from dsproc.diagnostics import ParseError

_WORDS = ("IDENT", "NUMBER")

_token = st.one_of(
    st.tuples(st.just("IDENT"), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)),
    st.tuples(st.just("NUMBER"), st.from_regex(r"[0-9]+(\.[0-9]+)?", fullmatch=True)),
    st.tuples(st.just("STRING"), st.text(st.one_of(
        st.sampled_from('"\\# \t\r'), st.characters(blacklist_characters="\n")))),
    st.tuples(st.just("PUNCT"), st.sampled_from(["->", "{", "}", "[", "]", ",", ":"])),
)
_gap = st.lists(st.one_of(
    st.sampled_from([" ", "\t", "\r", "\n"]),
    st.text(st.characters(blacklist_characters="\n")).map(lambda t: f"#{t}\n"),
), max_size=3)


@given(st.lists(st.tuples(_gap, _token)), _gap)
def test_tokenize_round_trip(pieces, tail):
    source, expected = [], []
    line, column = 1, 1
    previous = None

    def put(text):
        nonlocal line, column
        source.append(text)
        if text.endswith("\n"):
            line, column = line + 1, 1
        else:
            column += len(text)

    for gap, (kind, value) in pieces:
        if not gap and previous in _WORDS and kind in _WORDS:
            gap = [" "]
        for text in gap:
            put(text)
        expected.append((kind, value, line, column))
        put(f'"{lexer.escape(value)}"' if kind == "STRING" else value)
        previous = kind
    for text in tail:
        put(text)
    expected.append(("EOF", "", line, column))

    tokens = lexer.tokenize("".join(source))
    assert [(lexer.kind(text), lexer.value(text), tokens.lines[i], tokens.column(i))
            for i, text in enumerate(tokens)] == expected


@pytest.mark.parametrize("source, line, column", [
    ('x "abc', 1, 3),
    ('"a\\"', 1, 1),
    ('a\n  "x\n"', 2, 3),
])
def test_unterminated_string_points_at_opening_quote(source, line, column):
    with pytest.raises(ParseError) as info:
        lexer.tokenize(source)
    assert str(info.value) == f"{line}:{column}: unterminated string literal"


def test_unexpected_character_points_at_the_character():
    with pytest.raises(ParseError) as info:
        lexer.tokenize('ab "é"\n  é')
    assert str(info.value) == "2:3: unexpected character 'é'"


def test_eof_after_trailing_comment_is_at_end_of_line():
    source = "domain D { # trailing comment"
    tokens = lexer.tokenize(source)
    assert (tokens[-1], tokens.lines[-1], tokens.column(len(tokens) - 1)) == ("", 1, 30)
    with pytest.raises(ParseError) as info:
        dom.parse_domain(source)
    assert str(info.value) == ("1:30: expected 'concept', 'service' or 'sla', "
                               "found end of input")


@pytest.mark.parametrize("source, message", [
    ("domain D", "1:9: expected '{', found end of input"),
    ("domain D {\n  concept A { label", "2:20: expected STRING, found end of input"),
    ('domain D { "end of input" }',
     "1:12: expected 'concept', 'service' or 'sla', found 'end of input'"),
], ids=["punct", "kind", "string-token"])
def test_end_of_input_is_worded_one_way(source, message):
    with pytest.raises(ParseError) as info:
        dom.parse_domain(source)
    assert str(info.value) == message


def test_process_missing_its_closing_brace_reports_end_of_input():
    with pytest.raises(ParseError) as info:
        proc.parse_process("process P uses D {\n  start -> end\n",
                           dom.parse_domain("domain D { }"))
    assert str(info.value) == "3:1: expected '}', found end of input"
