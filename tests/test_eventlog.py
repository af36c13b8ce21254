"""The event log's writer and reader: the bytes render_log writes, and the
two routes by which read_log takes a line back to its record."""

import json
import math
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dsproc import engine, eventlog, monitor
from dsproc.diagnostics import DsprocError
from dsproc.mappings import AmEntry, MappingStore


# ---------------------------------------------------------------------------
# log codec: render_log writes json.dumps of each line's seq and its record's
# non-None fields in log order, and read_log takes a line back to its record

_chars = st.characters(exclude_categories=["Cs"]) | st.sampled_from(
    '"\\/\x00\x08\t\n\x1f\x7f\x80é€😀')
_text = st.text(_chars)
# lone surrogates too; json.loads would join an escaped pair into one character
_any_text = st.text(_chars | st.characters(categories=["Cs"]))
_int = st.integers(-2**63, 2**63)
_number = _int | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])
_kinds = st.sampled_from(list(eventlog.KINDS))
_statuses = st.sampled_from(eventlog.STATUSES)


def _record(text, number, ints=_int, durations=None, unknown=st.nothing(), conforming=False):
    """Records of ``text`` strings and ``number`` numbers, whose kind and
    status are the vocabulary's or drawn from ``unknown``; with
    ``conforming``, a record of a kind of the vocabulary carries each field
    its kind must carry."""
    # the fields after instance, in log order
    fields = {"element_uid": text, "element_id": text, "concept": text, "service": text,
              "status": _statuses | unknown,
              "duration_ms": number if durations is None else durations}

    def build(kinds, must=()):
        return st.builds(eventlog.EventRecord, number, kinds, text, ints,
                         *[values if name in must else st.none() | values
                           for name, values in fields.items()])
    if conforming:
        return st.one_of(*[build(st.just(kind), must)
                           for kind, (must, _may) in eventlog.KINDS.items()], build(unknown))
    return build(_kinds | unknown)


def _record_lines(records):
    text = eventlog.render_log(records, engine.SimulationConfig())
    assert text.endswith("\n")
    return text.split("\n")[1:-1]


def _doc(seq, record):
    return {"seq": seq, **{name: value for name, value in record._asdict().items()
                           if value is not None}}


# equal numbers that print differently, and numbers that repeat
_close_number = _number | st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5])


# render_log writes what it is given, a kind or status outside the vocabulary too
@given(st.lists(_record(_any_text, _close_number, unknown=_any_text), min_size=1, max_size=4),
       st.lists(st.tuples(_close_number, _int, st.none() | _close_number), max_size=8))
def test_log_line_is_json_dumps_of_the_set_fields(records, numbers):
    # records with the strings of an earlier one and other numbers: their
    # lines reuse the text render_log kept for those strings
    for i, (ts, instance, duration) in enumerate(numbers):
        r = records[i % len(records)]
        records.append(r._replace(ts_ms=ts, instance=instance, duration_ms=duration))
    assert _record_lines(records) == [json.dumps(_doc(seq, r))
                                      for seq, r in enumerate(records, 1)]


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)],
                         ids=["zero-negative-zero", "negative-zero-zero", "int-float",
                              "float-int"])
def test_equal_numbers_that_print_differently_keep_their_own_text(first, second):
    # render_log reuses the text of a number equal to the previous line's;
    # these pairs are equal and print differently
    record = eventlog.EventRecord(5.0, "activityEnd", "P", 1, "u1", "u1", "C", None, "ok", 2.5)
    records = [record._replace(ts_ms=first), record._replace(ts_ms=second),
               record._replace(duration_ms=first), record._replace(duration_ms=second),
               record._replace(ts_ms=first, duration_ms=first),
               record._replace(ts_ms=second, duration_ms=second)]
    assert _record_lines(records) == [json.dumps(_doc(seq, r))
                                      for seq, r in enumerate(records, 1)]


_finite = _int | st.floats(allow_nan=False, allow_infinity=False)
# records read back as they are: a duration is finite and not below 0 (a
# negative one is refused, see test_decode_line_rejects_a_bad_field)
_valid_records = st.lists(_record(_text, _finite, durations=_int.filter(lambda n: n >= 0)
                                  | st.floats(min_value=0.0, allow_infinity=False),
                                  conforming=True),
                          min_size=1, max_size=3)
_HEADER_LINE = '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}'


@given(_valid_records, st.integers(1, 3), _int)
def test_log_line_decodes_to_its_record(records, n, seq):
    header = json.loads(_HEADER_LINE)
    lines = [_HEADER_LINE, *_record_lines(records)]
    assert [values for _, values in eventlog.read_log(lines)] == [header, *records]
    # each log of a file is numbered from 1 after its own header
    lines *= 2
    assert [values for _, values in eventlog.read_log(lines)] == [header, *records] * 2
    # a record whose seq is not its position is refused, by the canonical
    # pattern and by the json route alike
    n = min(n, len(records))
    assume(seq != n)
    lines[n] = lines[n].replace(f'{{"seq": {n}, ', f'{{"seq": {seq}, ', 1)

    def read(lines):
        return list(eventlog.read_log(lines))
    expected = ("error", f"line {n + 1}: seq {seq}, expected {n}")
    assert _outcome(read, lines) == expected
    with mock.patch.object(eventlog, "_fullmatch", lambda: lambda line: None):
        assert _outcome(read, lines) == expected


_VALID = {"seq": 1, "ts_ms": 0.5, "kind": "processStart", "process": "P", "instance": 1}


@pytest.mark.parametrize("edit, message", [
    ({"instance": True}, "'instance' has the wrong type"),
    ({"seq": True}, "'seq' has the wrong type"),
    ({"seq": 1.0}, "'seq' has the wrong type"),
    ({"ts_ms": "5"}, "'ts_ms' has the wrong type"),
    ({"kind": None}, "'kind' missing"),
    ({"status": 1}, "'status' has the wrong type"),
    ({"duration_ms": False}, "'duration_ms' has the wrong type"),
    # the first bad field in log order is the one reported
    ({"seq": True, "kind": None}, "'seq' has the wrong type"),
    ({"process": None, "instance": "1"}, "'process' missing"),
    # no number that is not finite, or that no float holds, is a time or a duration
    ({"ts_ms": math.inf}, "'ts_ms' is Infinity"),
    ({"duration_ms": -math.inf}, "'duration_ms' is -Infinity"),
    ({"duration_ms": 10**400}, "'duration_ms' is too large for a float"),
    # no activity takes less than no time
    ({"duration_ms": -1}, "'duration_ms' is negative"),
    ({"duration_ms": -5e-324}, "'duration_ms' is negative"),
    ({"duration_ms": -10**400}, "'duration_ms' is too large for a float"),
    # the vocabulary is closed
    ({"kind": "activityFinish"}, "unknown kind 'activityFinish'"),
    ({"status": "failed"}, "unknown status 'failed'"),
    ({"kind": "", "status": ""}, "unknown kind ''"),
], ids=["bool-instance", "bool-seq", "float-seq", "string-ts", "null-kind", "int-status",
        "bool-duration", "first-of-two", "missing-before-wrong", "infinite-ts",
        "minus-infinite-duration", "int-past-the-largest-float", "negative-int-duration",
        "negative-float-duration", "negative-int-past-the-largest-float", "unknown-kind",
        "unknown-status", "kind-before-status"])
def test_decode_line_rejects_a_bad_field(edit, message):
    with pytest.raises(DsprocError) as exc:
        list(eventlog.read_log([json.dumps({**_VALID, **edit})]))
    assert str(exc.value) == f"line 1: malformed record: {message}"


def test_decode_line_rejects_a_missing_field():
    doc = dict(_VALID)
    del doc["kind"]
    with pytest.raises(DsprocError) as exc:
        list(eventlog.read_log([json.dumps(doc)]))
    assert str(exc.value) == "line 1: malformed record: 'kind' missing"


def test_decode_line_accepts_int_times_and_ignores_unknown_keys():
    [_, (_, record)] = eventlog.read_log([_HEADER_LINE, json.dumps(
        {**_VALID, "ts_ms": 7, "duration_ms": 3, "extra": [1], "kind": "activityEnd",
         "status": "ok"})])
    assert record == eventlog.EventRecord(7, "activityEnd", "P", 1, status="ok", duration_ms=3)
    assert type(record[0]) is int and type(record[-1]) is int


@pytest.mark.parametrize("text", ["-0.0", "-0"])
def test_a_duration_of_minus_zero_is_not_negative(text):
    line = ('{"seq": 1, "ts_ms": 0.5, "kind": "activityEnd", "process": "P", "instance": 1, '
            f'"status": "ok", "duration_ms": {text}}}')
    [_, (_, values)] = eventlog.read_log([_HEADER_LINE, line])
    assert repr(values[-1]) == repr(json.loads(text))


def _listed(names, conjunction="and"):
    """``names`` as README lists them: `a`, `b` and `c`."""
    quoted = [f"`{name}`" for name in names]
    return f" {conjunction} ".join(filter(None, [", ".join(quoted[:-1]), quoted[-1]]))


def test_readme_gives_the_vocabulary_of_the_table():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = " ".join(text.split("\n## Event log\n")[1].split("\n## ")[0].split())
    listed = dict(re.findall(r"- `(\w+)`: ([^;.]*)[;.]", section))
    assert listed == {kind: ", and ".join(filter(None, [must and f"must carry {_listed(must)}",
                                                        may and f"may carry {_listed(may)}"]))
                      for kind, (must, may) in eventlog.KINDS.items()}
    assert f"`status`, where it has one, is {_listed(eventlog.STATUSES, 'or')}." in section


# ---------------------------------------------------------------------------
# the two routes of read_log: the canonical pattern and json.loads

# number texts within the pattern's bounds and past them
_number_text = st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][-+]?[0-9]{1,4})?",
                             fullmatch=True)
# texts next to a number's grammar that JSON does not allow, and some it does
_odd_number_text = st.sampled_from(
    ["-0", "-0.0", "1E5", "1e-7", "1e999", "Infinity", "-Infinity", "NaN", "01", "-01", "1.",
     ".5", "+1", "1e", "1.e5", "--1", "\u0661", "1\u0661", "1_0", "0x1", "true", "null", '"1"',
     "[1]"])


@st.composite
def _numbers_line(draw):
    # seq is 1, its position after the header, unless it is the drawn slot
    numbers = ["1", *draw(st.lists(_number_text, min_size=3, max_size=3))]
    numbers[draw(st.integers(0, 3))] = draw(_number_text | _odd_number_text)
    seq, ts, instance, duration = numbers
    return (f'{{"seq": {seq}, "ts_ms": {ts}, "kind": "activityEnd", "process": "P", '
            f'"instance": {instance}, "status": "ok", "duration_ms": {duration}}}')


# lines of any record, and lines with printable ASCII strings and finite
# numbers, which mostly stay in the canonical form; a kind or status outside
# the vocabulary takes a line out of it
_ascii_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e))
_canonical_line = st.one_of(
    _record(_any_text, _number, _int | st.integers(-10**30, 10**30), unknown=_any_text,
            conforming=True),
    _record(_ascii_text, _int | st.floats(allow_nan=False, allow_infinity=False),
            unknown=_ascii_text | st.sampled_from(["activityFinish", "failed", "OK", ""]),
            conforming=True),
).map(
    lambda record: _record_lines([record])[0])


@st.composite
def _mutated_line(draw, lines=_canonical_line):
    line = draw(lines)
    how = draw(st.sampled_from(["separator", "reorder", "affix", "member", "string",
                                "truncate"]))
    if how == "separator":
        sep = draw(st.sampled_from([", ", ": "]))
        parts = line.split(sep)
        i = draw(st.integers(0, len(parts) - 2)) if len(parts) > 1 else 0
        other = draw(st.sampled_from([sep.strip(), f" {sep}", f"{sep.strip()}\t", f"{sep}\n"]))
        return sep.join(parts[:i + 1]) + other + sep.join(parts[i + 1:])
    if how == "reorder":
        doc = json.loads(line)
        return json.dumps({key: doc[key] for key in draw(st.permutations(list(doc)))})
    if how == "affix":
        prefix = draw(st.sampled_from(["", " ", "\n", "\ufeff", "["]))
        suffix = draw(st.sampled_from(["", "\n", "\r\n", "\n\n", " ", "\t\n", "\x0c", "\u2028",
                                       "x", "}", ",", "\x00", "]"]))
        return prefix + line + suffix
    if how == "member":
        member = draw(st.sampled_from([', "seq": 2', ', "extra": [1]', ', "kind": null',
                                       ', "log_version": 1', ', "duration_ms": true', ",", ", "]))
        return line[:-1] + member + "}"
    if how == "string":  # raw or escaped characters at the start of a string value
        chars = draw(st.sampled_from(["\x00", "\t", "\x1f", "\x7f", "é", "\\", '\\"', "\\n",
                                      "\\u0041", "\\ud800"]))
        field = draw(st.sampled_from(["kind", "process"]))
        return line.replace(f'"{field}": "', f'"{field}": "' + chars, 1)
    return line[:draw(st.integers(0, len(line) - 1))]


def _read(line):
    """The values read_log gives for a log of a header and ``line``."""
    return [values for _, values in eventlog.read_log([_HEADER_LINE, line])]


def _outcome(decode, line):
    """``decode(line)`` as the repr of what it gives (so a type or -0.0
    counts), or the text of the DsprocError it raised."""
    try:
        value = decode(line)
    except DsprocError as exc:
        return "error", str(exc)
    return "value", repr(value)


def _next_to_the_pattern(test):
    """``test`` with an example for each way a line can just miss, or just
    fit, the canonical form."""
    line = ('{{"seq": {}, "ts_ms": {}, "kind": "activityEnd", "process": "P", "instance": 3, '
            '"element_uid": "u{}1", "status": "ok", "duration_ms": 2.5}}{}')
    for seq in ("01", "-0", "\u0661", "1\u0661", "1.0", "1" * 21, "9" * 20,
                "1" * (sys.get_int_max_str_digits() + 1)):
        test = example(line.format(seq, "2.5", "", ""))(test)
    for ts in ("2.", "-0.0", "2E5", "2.5e-999", "25e999", "1" * 21 + ".0", "Infinity", "NaN"):
        test = example(line.format("1", ts, "", ""))(test)
    for char in ("\x00", "\x1f", "\x7f", "\u00e9", "\\n", '\\"', "\\u0041", "\\ud800"):
        test = example(line.format("1", "2.5", char, ""))(test)
    for end in ("\n", "\r\n", "\n\n", " ", "\x0c", "\u2028", "\x85"):
        test = example(line.format("1", "2.5", "", end))(test)
    # a kind or a status next to the vocabulary's
    for kind in ("activityEn", "activityEnds", "ActivityEnd", "gateway", ""):
        test = example(line.format("1", "2.5", "", "").replace("activityEnd", kind))(test)
    for status in ("failed", "oks", "o", "OK", ""):
        test = example(line.format("1", "2.5", "", "").replace('"ok"', f'"{status}"'))(test)
    return test


@_next_to_the_pattern
@given(_canonical_line | _mutated_line() | _numbers_line()
       | st.sampled_from(["5", "null", '"x"', "[]", "true", "", " ", "\n"]))
def test_decode_line_agrees_with_the_json_route(line):
    # no exception but DsprocError may escape either route; with a pattern
    # that matches nothing, the line takes the json route
    with mock.patch.object(eventlog, "_fullmatch", lambda: lambda line: None):
        reference = _outcome(_read, line)
    assert _outcome(_read, line) == reference


# logs of two mapped processes: canonical record lines of a small vocabulary,
# the same lines mutated, blank lines and headers, in any order
_INGEST_STORE = MappingStore("D", am={"u1": AmEntry("C", "P"), "u2": AmEntry("D", "Q")},
                             uids={"P/a": "u1", "Q/b": "u2"})
_INGEST_CM = {"C": ["s1"], "D": ["s2"]}
_vocabulary_line = st.builds(
    eventlog.EventRecord,
    _int | st.floats(allow_nan=False) | st.sampled_from([0, -0.0, 1.0]),
    st.sampled_from([*eventlog.KINDS, "other"]),
    st.sampled_from(["P"] * 8 + ["Q"] * 8 + ["R"]), st.integers(-1, 3),
    st.none() | st.sampled_from(["u1", "u2", "u3"]), st.none() | st.just("e"),
    st.none() | st.just("C"), st.none() | st.sampled_from(["s1", "s2"]),
    st.none() | st.sampled_from([*eventlog.STATUSES, "x"]),
    st.none() | _int | st.floats() | st.sampled_from([0, -0.0, 1.0]),
).map(lambda record: _record_lines([record])[0])


def _numbered(lines):
    """``lines`` with each record line that starts as render_log writes it
    numbered by its position among the records since the last header."""
    numbered, position = [], 0
    for line in lines:
        if line == _HEADER_LINE:
            position = 0
        elif line.strip():
            position += 1
            if line.startswith('{"seq": 1, '):
                line = f'{{"seq": {position}, ' + line[len('{"seq": 1, '):]
        numbered.append(line)
    return numbered


def _ingest_outcome(lines):
    """The report of ``lines`` as JSON text (so -0.0 and NaN count), or the
    text of the DsprocError that ingest raised."""
    try:
        probes = monitor.ingest(lines, _INGEST_STORE, _INGEST_CM)
    except DsprocError as exc:
        return "error", str(exc)
    return "report", monitor.render_report_json(monitor.build_report(probes, _INGEST_STORE))


@settings(max_examples=200)
@given(st.sampled_from([True] * 4 + [False]), st.lists(st.one_of(
    *[_vocabulary_line] * 6, _mutated_line(_vocabulary_line),
    st.sampled_from(["", "\n", " \t\n", _HEADER_LINE])), min_size=2, max_size=12))
def test_ingest_agrees_with_an_ingest_of_every_line_by_json_loads(header, lines):
    lines = _numbered([_HEADER_LINE] + lines if header else lines)
    # with a pattern that matches nothing, every line takes the json route
    with mock.patch.object(eventlog, "_fullmatch", lambda: lambda line: None):
        reference = _ingest_outcome(lines)
    assert _ingest_outcome(lines) == reference
