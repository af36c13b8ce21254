"""Diagnostics, error types, the float arithmetic and the graph walk shared by all
pipeline stages."""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from contextlib import contextmanager

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable, Iterable, Iterator
    from typing import Any, TypeVar

    T = TypeVar("T")

# the deepest subProcess nesting a model may have: validate_domain reports a
# concept that expands deeper, and parse_bpmn a file that nests deeper
MAX_NESTING = 100


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right, the same on every Python version;
    from Python 3.12 on, ``sum`` compensates floats."""
    total = 0
    for value in values:
        total += value
    return total


def fits_a_float(value: float) -> bool:
    """``value`` is a finite float, or an int no larger than the largest one."""
    return -sys.float_info.max <= value <= sys.float_info.max


def reachable(seeds: Iterable[str], edges: dict[str, list[str]]) -> set[str]:
    """``seeds`` and every node reachable from them along ``edges``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for node in edges.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


class Diagnostic(namedtuple("Diagnostic", "severity message line")):
    __slots__ = ()

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.severity} at {self.line}: {self.message}"
        return f"{self.severity}: {self.message}"


class Located(tuple):
    """Base of a namedtuple record declared on a source ``line``, e.g.
    ``class Node(Located, namedtuple("Node", "id kind concept"))``; ``line``
    takes no part in ==, hash or repr, so a model equals its re-parsed text."""

    line = None

    def __new__(cls, *fields, line: int | None = None, **named):
        record = super().__new__(cls, *fields, **named)
        record.line = line
        return record


def error(message: str, line: int | None = None) -> Diagnostic:
    return Diagnostic("error", message, line)


def warning(message: str, line: int | None = None) -> Diagnostic:
    return Diagnostic("warning", message, line)


def info(message: str, line: int | None = None) -> Diagnostic:
    return Diagnostic("info", message, line)


class DsprocError(Exception):
    """Base class for all toolchain errors."""


class ParseError(DsprocError):
    """An error in DSL or XML input, located by line and column when they are known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        where = self.line if self.column is None else f"{self.line}:{self.column}"
        return base if self.line is None else f"{where}: {base}"


class JSONError(DsprocError):
    """Text that is not JSON, or JSON that Python cannot hold; ``reason`` says why."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"malformed JSON: {reason}")


def parse_json(text: str) -> Any:
    """``json.loads(text)``; every way it can fail on text raises :class:`JSONError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JSONError(str(exc)) from None
    except ValueError:  # not a JSONDecodeError: int() of a number with too many digits
        raise JSONError(f"an integer has more than {sys.get_int_max_str_digits()} digits"
                        ) from None
    except RecursionError:
        raise JSONError("arrays or objects nested too deeply") from None


@contextmanager
def reading(path) -> Iterator[None]:
    """Turn every input error raised inside the block into a
    :class:`DsprocError` that names ``path``: text that is not UTF-8, and any
    :class:`DsprocError` (malformed JSON included) as ``<path>:<line>:<col>: …``
    when it is located, ``<path>: …`` otherwise."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DsprocError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except DsprocError as exc:
        sep = ":" if getattr(exc, "line", None) is not None else ": "
        raise DsprocError(f"{path}{sep}{exc}") from None


def load_input(path, parse: Callable[[str], T]) -> T:
    """``parse`` the text of the UTF-8 file ``path``; any input error names the file."""
    with reading(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)


# JSON input shapes: the Python types json.loads gives each kind of value
_JSON_KINDS = {"object": dict, "array": list, "string": str, "number": (int, float),
               "integer": int}
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}
_REQUIRED = object()


def _at(where: str, key) -> str:
    """The path of member ``key`` (an array index when an int) of the value at ``where``."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def json_check(value, kind: str, where: str = "", key=None):
    """``value`` if it is a JSON ``kind`` (no boolean is a number); else an error
    naming its path, ``where`` plus ``key``, or the document when that is empty."""
    if value.__class__ is bool or not isinstance(value, _JSON_KINDS[kind]):
        path = where if key is None else _at(where, key)
        what = f"field {path!r}" if path else "the document"
        article = "an" if kind[0] in "aeiou" else "a"
        raise DsprocError(f"{what} must be {article} {kind}, found {_JSON_NAMES[value.__class__]}")
    return value


def json_field(obj: dict, key: str, kind: str, where: str = "", default=_REQUIRED):
    """Field ``key`` of the JSON object at path ``where``, checked to be a ``kind``.

    An absent or null field gives ``default``; without one it is missing.
    """
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise DsprocError(f"missing field {_at(where, key)!r}")
        return default
    return json_check(value, kind, where, key)


def json_members(obj: dict, key: str, kind: str,
                 where: str = "") -> Iterator[tuple[str, Any, str]]:
    """``(name, value, path)`` of each member of the optional object field ``key``,
    each value checked to be a ``kind``."""
    path = _at(where, key)
    for name, value in json_field(obj, key, "object", where, {}).items():
        yield name, json_check(value, kind, path, name), f"{path}.{name}"


def json_elements(obj: dict, key: str, kind: str, where: str = "") -> list[Any]:
    """The required array field ``key``, each element checked to be a ``kind``."""
    path = _at(where, key)
    return [json_check(item, kind, path, i)
            for i, item in enumerate(json_field(obj, key, "array", where))]
