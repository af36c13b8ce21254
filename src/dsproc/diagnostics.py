"""Diagnostics and error types shared by all pipeline stages."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        if self.line is not None:
            loc = f"{self.line}:{self.column}" if self.column is not None else str(self.line)
            return f"{self.severity} at {loc}: {self.message}"
        return f"{self.severity}: {self.message}"


def error(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("error", message, line, column)


def warning(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("warning", message, line, column)


def info(message: str, line: Optional[int] = None, column: Optional[int] = None) -> Diagnostic:
    return Diagnostic("info", message, line, column)


def errors_of(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diags if d.severity == "error"]


class DsprocError(Exception):
    """Base class for all toolchain errors."""


class ParseError(DsprocError):
    """Raised when DSL or XML input cannot be turned into a valid model."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            loc = f"{self.line}:{self.column}" if self.column is not None else str(self.line)
            return f"{loc}: {base}"
        return base


def load_json(path, parse: Callable[[str], T]) -> T:
    """Read ``path`` and ``parse`` its text; malformed JSON names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise DsprocError(f"{path}: malformed JSON: {exc}") from None
