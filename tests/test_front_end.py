"""The `.dsml` and `.dsproc` front end as `check` reports it.

The pinned cases hold `check`'s exact output and exit code for one malformed
file per syntax error the lexer and the two parsers raise, and for a few
inputs whose location is easy to get wrong. The fuzz property mutates valid
sources by one character and asks that every failure be a located error.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dsproc import cli, domain as dom, process as proc
from dsproc.diagnostics import ParseError

from conftest import FIXTURES

_DOMAIN = 'domain D {\n  service s { operation "op" }\n  concept A { label "a" services [s] }\n}\n'

# (id, .dsml text, .dsproc text or None, exit code, stderr with the directory as <dir>)
_PINNED = [
    # lexer
    ("unterminated-string", 'domain D {\n  concept A { label "abc }\n}\n', None, 1,
     "error: <dir>/d.dsml:2:21: unterminated string literal\n"),
    ("unexpected-character", "domain D {\n  concept A @ {\n}\n", None, 1,
     "error: <dir>/d.dsml:2:13: unexpected character '@'\n"),
    ("expected-literal", "domain D concept", None, 1,
     "error: <dir>/d.dsml:1:10: expected '{', found 'concept'\n"),
    ("expected-kind", "domain D {\n  concept A { label }\n}", None, 1,
     "error: <dir>/d.dsml:2:21: expected STRING, found '}'\n"),
    # domain
    ("sla-metric", "domain D {\n  sla X { min_duration 1 s severity info }\n}\n", None, 1,
     "error: <dir>/d.dsml:2:11: unknown SLA metric 'min_duration'\n"),
    ("sla-unit", "domain D {\n  sla X { max_duration 1 weeks severity info }\n}\n", None, 1,
     "error: <dir>/d.dsml:2:26: unknown SLA unit 'weeks'\n"),
    ("sla-severity", "domain D {\n  sla X { max_duration 1 s severity fatal }\n}\n", None, 1,
     "error: <dir>/d.dsml:2:37: unknown SLA severity 'fatal'\n"),
    ("domain-item", "domain D {\n  process P\n}\n", None, 1,
     "error: <dir>/d.dsml:2:3: expected 'concept', 'service' or 'sla', found 'process'\n"),
    ("domain-trailing", "domain D {\n}\n}\n", None, 1,
     "error: <dir>/d.dsml:3:1: unexpected trailing input '}'\n"),
    ("duplicate-clause", 'domain D {\n  concept A { label "a" sla X sla Y }\n}\n', None, 1,
     "error: <dir>/d.dsml:2:31: duplicate 'sla' clause in concept 'A'\n"),
    ("version", 'domain D {\n  concept A { label "a"\n    version 0 }\n}\n', None, 1,
     "error: <dir>/d.dsml:3:5: version must be >= 1\n"),
    ("concept-clause", 'domain D {\n  concept A { label "a" owner B }\n}\n', None, 1,
     "error: <dir>/d.dsml:2:25: unknown concept clause 'owner'\n"),
    # process
    ("implicit-node", _DOMAIN, "process P uses D {\n  node end: concept A\n}\n", 1,
     "error: <dir>/p.dsproc:2:8: 'end' is an implicit node and cannot be redeclared\n"),
    ("duplicate-node", _DOMAIN, "process P uses D {\n  node a: concept A\n  node a: exclusive\n}\n",
     1, "error: <dir>/p.dsproc:3:8: duplicate node id 'a'\n"),
    ("node-kind", _DOMAIN, "process P uses D {\n  node a: inclusive\n}\n", 1,
     "error: <dir>/p.dsproc:2:11: unknown node kind 'inclusive'\n"),
    ("domain-mismatch", _DOMAIN, "process P uses E {\n}\n", 1,
     "error: <dir>/p.dsproc:1:16: process uses domain 'E' but 'D' was supplied\n"),
    ("process-trailing", _DOMAIN, "process P uses D {\n  start -> end\n} end\n", 1,
     "error: <dir>/p.dsproc:3:3: unexpected trailing input 'end'\n"),
    # locations that are easy to get wrong
    ("eof-after-comment", "domain D {\n  # nothing declared yet", None, 1,
     "error: <dir>/d.dsml:2:25: expected 'concept', 'service' or 'sla', found end of input\n"),
    ("escaped-quote", 'domain D {\n  concept A { label "say \\"hi\\" \\\\" "a \\"b\\"" }\n}\n',
     None, 1, "error: <dir>/d.dsml:2:37: expected IDENT, found 'a \"b\"'\n"),
    ("lexing-error-after-parse-error", "domain D concept\n  x = 1\n", None, 1,
     "error: <dir>/d.dsml:2:5: unexpected character '='\n"),
    ("subprocess-body",
     'domain D {\n  concept A { label "a" subprocess {\n    node start: exclusive\n  } }\n}\n',
     None, 1,
     "error: <dir>/d.dsml:3:10: 'start' is an implicit node and cannot be redeclared\n"),
    ("flow-condition", _DOMAIN, "process P uses D {\n  start -> end when 3\n}\n", 1,
     "error: <dir>/p.dsproc:2:21: expected STRING, found '3'\n"),
    ("ident-list", 'domain D {\n  concept A { label "a" services [s,] }\n}\n', None, 1,
     "error: <dir>/d.dsml:2:37: expected IDENT, found ']'\n"),
    ("number", "domain D {\n  sla X { max_duration fast s severity info }\n}\n", None, 1,
     "error: <dir>/d.dsml:2:24: expected NUMBER, found 'fast'\n"),
    ("crlf-and-tabs", "domain D {\r\n\tconcept A { label\t}\r\n}\r\n", None, 1,
     "error: <dir>/d.dsml:2:20: expected STRING, found '}'\n"),
    ("clean", _DOMAIN.replace('"a"', '"say \\"hi\\""'),
     "process P uses D {\n  node a: concept A\n  start -> a\n  a -> end  # done\n}", 0, ""),
]


def _check(tmp_path, dsml, dsproc, capsys):
    argv = ["check", str(tmp_path / "d.dsml")]
    (tmp_path / "d.dsml").write_bytes(dsml.encode("utf-8"))
    if dsproc is not None:
        argv.append(str(tmp_path / "p.dsproc"))
        (tmp_path / "p.dsproc").write_bytes(dsproc.encode("utf-8"))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out.replace(str(tmp_path), "<dir>"), err.replace(str(tmp_path), "<dir>")


@pytest.mark.parametrize("dsml, dsproc, code, stderr",
                         [pytest.param(*case[1:], id=case[0]) for case in _PINNED])
def test_check_output_is_pinned(tmp_path, capsys, dsml, dsproc, code, stderr):
    assert _check(tmp_path, dsml, dsproc, capsys) == (code, "", stderr)


def test_a_version_too_large_for_a_float_is_a_located_error():
    with pytest.raises(ParseError) as info:
        dom.parse_domain('domain D {\n  concept A { label "a" version ' + "9" * 400 + " }\n}\n")
    assert str(info.value) == "2:33: version is too large"


def test_a_threshold_too_large_for_a_float_is_a_located_error(tmp_path, capsys):
    # float() of 309 or more digits is inf: an SLA that could never alert
    dsml = "domain D {\n  sla S { max_mean_duration " + "9" * 400 + " h severity warning }\n}\n"
    assert _check(tmp_path, dsml, None, capsys) == (
        1, "", "error: <dir>/d.dsml:2:29: threshold is too large\n")


def test_errors_about_the_implicit_end_and_start_are_located(tmp_path, capsys):
    # the property below, shrunk: a renamed node leaves 'end' unreachable
    dsml = (FIXTURES / "order_handling.dsml").read_text(encoding="utf-8")
    dsproc = (FIXTURES / "order_handling.dsproc").read_text(encoding="utf-8")
    code, out, err = _check(tmp_path, dsml, dsproc.replace("node approve", "node aapprove"),
                            capsys)
    assert (code, err) == (1, "")
    assert "<dir>/p.dsproc: error at 27: node 'end' is unreachable from start" in out
    assert "<dir>/p.dsproc: error at 2: node 'start' lies on no path to an end node" in out


@pytest.mark.parametrize("dsml, dsproc, stdout", [
    (_DOMAIN, "process P uses D {\n  node a: concept A\n}\n",
     "<dir>/p.dsproc: error at 1: no flow reaches 'end'\n"
     "<dir>/p.dsproc: error at 2: node 'a' is unreachable from start\n"
     "<dir>/p.dsproc: error at 1: node 'start' has no outgoing flow\n"
     "<dir>/p.dsproc: error at 2: node 'a' has no outgoing flow\n"),
    ('domain D {\n  service s { operation "op" }\n'
     '  concept A { label "a" services [s] depends_on [B] }\n'
     '  concept B { label "b" services [s]\n    depends_on [A] subprocess {\n'
     '      node n: concept B\n      start -> n\n    }\n  }\n}\n', None,
     "<dir>/d.dsml: error at 5: concept B: no flow reaches 'end'\n"
     "<dir>/d.dsml: error at 6: concept B: node 'n' has no outgoing flow\n"
     "<dir>/d.dsml: error at 4: dependency cycle: A -> B -> A\n"
     "<dir>/d.dsml: error at 4: subprocess expansion cycle: B -> B\n"),
], ids=["no-flow", "cycles"])
def test_whole_model_errors_are_located(tmp_path, capsys, dsml, dsproc, stdout):
    # 'no flow reaches end' sits on the body's '{', a cycle on the concept that closes it
    assert _check(tmp_path, dsml, dsproc, capsys) == (1, stdout, "")


# the lexical vocabulary, and characters no token may hold outside a string
_CHARS = list("aZ_09.{}[],:->\" \t\n") + ["@", "é", '"', "\\", "\r", "#"]


@st.composite
def _generated_domain(draw) -> str:
    names = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    concepts = []
    for name in names:
        body = None
        if draw(st.booleans()):
            inner = draw(st.sampled_from(names))
            body = proc.ProcessBody(
                (proc.Node("start", "start"), proc.Node("n", "concept", inner),
                 proc.Node("end", "end")),
                (proc.Flow("start", "n"), proc.Flow("n", "end", draw(st.sampled_from([None, "ok"])),
                                                     draw(st.booleans()))))
        concepts.append(dom.DSConcept(
            name, draw(st.text('ab "\\#', max_size=4)), draw(st.integers(1, 3)),
            () if body else ("s",), draw(st.sampled_from([None, "X"])),
            tuple(draw(st.lists(st.sampled_from(names), max_size=2, unique=True))), body))
    return dom.serialize_domain(dom.Domain(
        "G", tuple(concepts), (dom.DSService("s", 'say "hi"'),),
        (dom.Sla("X", "max_duration", draw(st.sampled_from([2.0, 0.5])), "s", "info"),)))


def _mutate(draw, text: str) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_CHARS))
    how = draw(st.sampled_from(["insert", "delete", "replace"]))
    if how == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if how == "replace" else "") + text[at + 1:]


def _parses_or_is_located(parse):
    try:
        parse()
    except ParseError as exc:
        assert exc.line is not None and exc.column is not None


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_one_character_off_parses_or_is_a_located_error(tmp_path, capsys, data):
    dsml = (FIXTURES / "order_handling.dsml").read_text(encoding="utf-8")
    dsproc = (FIXTURES / "order_handling.dsproc").read_text(encoding="utf-8")
    which = data.draw(st.sampled_from(["fixture domain", "generated domain", "process"]))
    if which == "generated domain":
        dsml, dsproc = data.draw(_generated_domain()), None
    if which == "process":
        dsproc = _mutate(data.draw, dsproc)
        d = dom.parse_domain(dsml)
        _parses_or_is_located(lambda: proc.parse_process(dsproc, d))
    else:
        dsml = _mutate(data.draw, dsml)
        _parses_or_is_located(lambda: dom.parse_domain(dsml))

    code, out, err = _check(tmp_path, dsml, dsproc, capsys)
    assert code in (0, 1)
    for line in err.splitlines():
        assert line.startswith(("error: <dir>/d.dsml:", "error: <dir>/p.dsproc:"))
        assert line.split(":")[2].isdigit() and line.split(":")[3].isdigit(), line
    for line in out.splitlines():
        assert ": error: " not in line, line


@pytest.mark.parametrize("record", [
    proc.Node("n", "concept", "A"),
    proc.Flow("start", "n", "ok", True),
    dom.DSService("s", "op"),
    dom.Sla("L", "max_duration", 1.0, "s", "info"),
    dom.DSConcept("A", "a", service_refs=("s",)),
], ids=lambda record: type(record).__name__)
def test_a_declaration_keeps_its_line_out_of_equality_hash_and_repr(record):
    located = type(record)(*record, line=7)
    assert located.line == 7 and record.line is None
    assert located == record and hash(located) == hash(record)
    assert repr(located) == repr(record) and "line" not in repr(located)
    assert located._asdict() == record._asdict()
