"""Diagnostics and error types shared by all pipeline stages."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


def _loc(line: int, column: Optional[int]) -> str:
    """``line:column``, or ``line`` alone when the column is unknown."""
    return f"{line}:{column}" if column is not None else str(line)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.severity} at {_loc(self.line, self.column)}: {self.message}"
        return f"{self.severity}: {self.message}"


def error(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("error", message, line, column)


def warning(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("warning", message, line, column)


def info(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("info", message, line, column)


class DsprocError(Exception):
    """Base class for all toolchain errors."""


class ParseError(DsprocError):
    """An error in DSL or XML input, located by line and column when they are known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"{_loc(self.line, self.column)}: {base}"
        return base


@contextmanager
def reading(path) -> Iterator[None]:
    """Turn every input error raised inside the block into a
    :class:`DsprocError` that names ``path``: text that is not UTF-8,
    malformed JSON, and any :class:`DsprocError` as ``<path>:<line>:<col>: …``
    when it is located, ``<path>: …`` otherwise."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DsprocError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DsprocError(f"{path}: malformed JSON: {exc}") from None
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
                 where: str = "") -> Iterator[Tuple[str, Any, str]]:
    """``(name, value, path)`` of each member of the optional object field ``key``,
    each value checked to be a ``kind``."""
    path = _at(where, key)
    for name, value in json_field(obj, key, "object", where, {}).items():
        yield name, json_check(value, kind, path, name), f"{path}.{name}"


def json_elements(obj: dict, key: str, kind: str, where: str = "") -> List[Any]:
    """The required array field ``key``, each element checked to be a ``kind``."""
    path = _at(where, key)
    return [json_check(item, kind, path, i)
            for i, item in enumerate(json_field(obj, key, "array", where))]
