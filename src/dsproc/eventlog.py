"""The event log: its format, its writer and its reader.

Log format: JSON Lines. The first line is a header
``{"log_version": 1, "seed": ..., "rng": "python-mt19937"}``; each
following line is one event record. For ``gatewayTaken`` records
``element_id`` names the sequence flow that was taken.

A record is an immutable :class:`EventRecord` tuple of the fields after
``seq`` in log order; a field that does not apply is ``None``. ``seq`` is
not part of the record: it is the 1-based position of the record's line
in the log, written by :func:`render_log`.

Each record line is exactly the bytes ``json.dumps`` gives for an object
of ``seq`` and the record's fields in ``_FIELD_ORDER``, with every ``None``
field omitted: ``", "`` and ``": "`` separators, ASCII-only string escapes,
``repr`` for ints and finite floats, and ``Infinity``/``-Infinity``/
``NaN`` for the others. :func:`render_log` writes those lines without
building the objects.

Reading contract: :func:`read_log` reads a line in the canonical form, the
line :func:`render_log` writes when no string needs an escape, with one
pattern (``_CANONICAL``, compiled on the first line read), and every other
line with ``json.loads`` and its checks (:func:`_decode_json`). On a line
in the canonical form both routes give the same values, because
``json.loads`` converts a number's text with the same ``int`` or
``float``; for a record line those values equal its record. A record whose
``ts_ms`` or ``duration_ms`` is not finite (NaN, an infinity, or an int
past the largest float) is malformed: no time order places NaN, and no
report's sum stays a finite float past the largest one. So is a record
whose ``duration_ms`` is below 0 (``-0.0`` is not): no activity takes less
than no time. No canonical line holds such a number, so the json route
refuses them all.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str

from .diagnostics import DsprocError, JSONError, fits_a_float, parse_json

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Collection, Iterable, Iterator

    from .engine import SimulationConfig

RNG_ID = "python-mt19937"
LOG_VERSION = 1

_NUMBER = (int, float)
# every field of a record line in log order, with the types a line may
# carry for it; the first five are required
_FIELD_TYPES = {"seq": int, "ts_ms": _NUMBER, "kind": str, "process": str, "instance": int,
                "element_uid": str, "element_id": str, "concept": str, "service": str,
                "status": str, "duration_ms": _NUMBER}
_FIELD_ORDER = tuple(_FIELD_TYPES)
_REQUIRED = frozenset(_FIELD_ORDER[:5])
# one event; ``seq`` is its line's position in the log, not a field
EventRecord = namedtuple("EventRecord", _FIELD_ORDER[1:], defaults=(None,) * 6)

# The canonical form of a record line. Strings hold no backslash and no
# control character. Numbers follow the JSON grammar with bounded digit
# counts: a float's repr has at most 16 integer, 20 fraction and 3 exponent
# digits, and an int of at most 20 digits is far below Python's limit on
# int(text). A positive exponent is at most 288, so that no float of at
# most 20 integer digits that the pattern matches overflows to infinity.
# A duration has no sign, so a negative one takes the json route, which
# refuses it. A line outside these bounds is still read, by json.loads.
# An optional part is written (?:part|), not (?:part)?: the same matches,
# which the re module finds about a fifth faster.
_UINT = r"(?:0|[1-9][0-9]{0,19})"
_INT = "-?" + _UINT
_EXPONENT = r"[eE](?:-[0-9]{1,3}|\+?(?:[01]?[0-9]{1,2}|2[0-7][0-9]|28[0-8]))"
_FRACTION = rf"(?:\.[0-9]{{1,20}}(?:{_EXPONENT}|)|{_EXPONENT})"
# a float's text in one group, an int's in the next
_NUMBER_RE = f"(?:({_INT}{_FRACTION})|({_INT}))"
_DURATION_RE = f"(?:({_UINT}{_FRACTION})|({_UINT}))"
_STRING_RE = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_TEXT = (
    f'{{"seq": (?:{_INT}), "ts_ms": {_NUMBER_RE}, "kind": {_STRING_RE}, '
    f'"process": {_STRING_RE}, "instance": ({_INT})'
    + "".join(f'(?:, "{name}": {_STRING_RE}|)' for name in _FIELD_ORDER[5:10])
    + f'(?:, "duration_ms": {_DURATION_RE}|)}}\n?')
_CANONICAL = None  # the compiled pattern, once a line has been read
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_number(value: int | float) -> str:
    text = repr(value)
    return _NON_FINITE.get(text, text)


def _fullmatch():
    """The canonical pattern's ``fullmatch``; the pattern is compiled on first use."""
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = re.compile(_CANONICAL_TEXT)
    return _CANONICAL.fullmatch


def _values(groups: tuple) -> tuple:
    """A record's values from the groups of its canonical line."""
    ts, ts_int, kind, process, instance, uid, element_id, concept, service, status, \
        duration, duration_int = groups
    return (float(ts) if ts is not None else int(ts_int), kind, process,
            int(instance), uid, element_id, concept, service, status,
            float(duration) if duration is not None
            else None if duration_int is None else int(duration_int))


def _decode_json(line: str) -> dict | tuple:
    """One log line by a single ``json.loads``: the header as a dict, a record
    line as the values of its fields after ``seq`` (checked, not returned) in
    log order, ``None`` for an absent one, a tuple equal to its record. Any
    other line (not JSON, not an object, a required field missing, a field of
    the wrong type, a time or duration that is not finite, a negative
    duration, an unsupported log version) raises DsprocError."""
    try:
        doc = parse_json(line)
    except JSONError as exc:
        raise DsprocError(f"malformed record: {exc.reason}") from None
    if not isinstance(doc, dict):
        raise DsprocError("malformed record: not a JSON object")
    if "log_version" in doc:
        if doc["log_version"] != LOG_VERSION:
            raise DsprocError(f"unsupported log version {doc['log_version']!r}")
        return doc
    values = tuple(map(doc.get, _FIELD_ORDER))
    for (name, types), value in zip(_FIELD_TYPES.items(), values):
        if value is None:
            if name in _REQUIRED:
                raise DsprocError(f"malformed record: {name!r} missing")
        elif value.__class__ is bool or not isinstance(value, types):
            raise DsprocError(f"malformed record: {name!r} has the wrong type")
    for i in (1, 10):
        value = values[i]
        if value is not None and not fits_a_float(value):
            what = _json_number(value) if value.__class__ is float else "too large for a float"
            raise DsprocError(f"malformed record: {_FIELD_ORDER[i]!r} is {what}")
    if values[10] is not None and values[10] < 0:
        raise DsprocError("malformed record: 'duration_ms' is negative")
    return values[1:]


def read_log(lines: Iterable[str], kinds: Collection[str]) -> Iterator[tuple[int, dict | tuple]]:
    """``(line_no, values)`` for each line of ``lines`` that is not blank,
    numbered from 1, with the values :func:`_decode_json` gives; except
    that a record line in the canonical form whose kind is not in ``kinds``
    has its numbers, ``ts_ms``, ``instance`` and ``duration_ms``, as ``None``.

    ``lines`` is read once, one line at a time. A line that does not decode
    and is not blank raises :class:`DsprocError`, prefixed ``line N: ``.
    """
    fullmatch = _fullmatch()
    for line_no, line in enumerate(lines, 1):
        match = fullmatch(line)
        if match is None:
            try:
                values = _decode_json(line)
            except DsprocError as exc:
                if not line.strip():
                    continue
                raise DsprocError(f"line {line_no}: {exc}") from None
        else:
            groups = match.groups()
            if groups[2] in kinds:
                values = _values(groups)
            else:
                _, _, kind, process, _, uid, element_id, concept, service, status, _, _ = groups
                values = (None, kind, process, None, uid, element_id, concept, service, status,
                          None)
        yield line_no, values


def render_log(records: Iterable[EventRecord], cfg: SimulationConfig) -> str:
    """The log: its header, then one line per record, numbered from 1 by
    ``seq``; see the module docstring for their bytes."""
    lines = [json.dumps({"log_version": LOG_VERSION, "seed": cfg.seed, "rng": RNG_ID})]
    append = lines.append
    # the fixed text of a line from ts_ms to instance, and from instance to
    # duration_ms, for each combination of the fields it is made of
    fragments: dict[tuple, tuple[str, str]] = {}
    # the last ts_ms and duration_ms written, and their text: a nonzero number
    # of the same type and value has the same text (zeros differ by sign)
    last_ts = last_duration = None
    ts_text = duration_text = ""
    for seq, (ts, kind, process, instance, uid, element_id, concept, service, status,
              duration) in enumerate(records, 1):
        key = (kind, process, uid, element_id, concept, service, status)
        fragment = fragments.get(key)
        if fragment is None:
            fragment = fragments[key] = (
                f', "kind": {_json_str(kind)}, "process": {_json_str(process)}, "instance": ',
                "".join(f', "{name}": {_json_str(value)}'
                        for name, value in zip(_FIELD_ORDER[5:10], key[2:]) if value is not None))
        middle, tail = fragment
        if ts != last_ts or not ts or ts.__class__ is not last_ts.__class__:
            ts_text = _json_number(ts)
            last_ts = ts
        if duration is None:
            append(f'{{"seq": {seq!r}, "ts_ms": {ts_text}{middle}{instance!r}{tail}}}')
        else:
            if duration != last_duration or not duration \
                    or duration.__class__ is not last_duration.__class__:
                duration_text = _json_number(duration)
                last_duration = duration
            append(f'{{"seq": {seq!r}, "ts_ms": {ts_text}{middle}{instance!r}{tail}'
                   f', "duration_ms": {duration_text}}}')
    append("")  # the trailing newline, without a second copy of the log
    return "\n".join(lines)
