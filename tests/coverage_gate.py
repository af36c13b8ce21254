"""A gate on the lines of ``src/dsproc`` that tier-1 runs. Load it by name on
Python 3.12 or later, on the whole suite:

    python -m pytest -p tests.coverage_gate

It records each line of dsproc that runs in the test process through
``sys.monitoring`` (PEP 669), and turns a line's event off after its first
hit, so each line costs one call for the whole run. At the end of the run it
names every executable line that did not run as ``file:line`` and fails the
run. A statement, or an ``except`` clause, whose first line carries
``# pragma: no cover`` is left out, its block included; each such comment
says why no test runs it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dsproc"

if not hasattr(sys, "monitoring"):
    raise ImportError("tests.coverage_gate needs sys.monitoring, which Python 3.12 added")

_TOOL = sys.monitoring.COVERAGE_ID
_ran: dict[Path, set[int]] = {}  # the lines that ran, by source file of dsproc
_file_of: dict[str, Path | None] = {}  # co_filename: its source file of dsproc, or None


def _line(code, line: int):
    try:
        path = _file_of[code.co_filename]
    except KeyError:
        path = Path(code.co_filename).resolve()
        path = _file_of[code.co_filename] = path if path.parent == SRC else None
    if path is not None:
        _ran.setdefault(path, set()).add(line)
    return sys.monitoring.DISABLE


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # before the first conftest imports dsproc, whose import runs lines too
    sys.monitoring.use_tool_id(_TOOL, "dsproc coverage gate")
    sys.monitoring.register_callback(_TOOL, sys.monitoring.events.LINE, _line)
    sys.monitoring.set_events(_TOOL, sys.monitoring.events.LINE)


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _excluded(source: str) -> set[int]:
    """The lines of each statement or ``except`` clause whose first line
    carries the pragma."""
    marked = {n for n, text in enumerate(source.splitlines(), 1) if "# pragma: no cover" in text}
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.stmt, ast.excepthandler)) and node.lineno in marked
            for line in range(node.lineno, node.end_lineno + 1)}


def missed_lines() -> list[str]:
    """``file:line`` of each executable line of dsproc, outside the pragma's
    blocks, that has not run."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = _code_lines(compile(source, str(path), "exec")) - _excluded(source)
        out += [f"src/dsproc/{path.name}:{line}"
                for line in sorted(lines - _ran.get(path, set()))]
    return out


_missed: list[str] = []


def pytest_sessionfinish(session):
    sys.monitoring.set_events(_TOOL, 0)
    sys.monitoring.free_tool_id(_TOOL)
    _missed[:] = missed_lines()
    if _missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _missed:
        terminalreporter.section("lines of src/dsproc that no test ran", red=True)
        for where in _missed:
            terminalreporter.line(where)
    else:
        terminalreporter.line("coverage gate: every executable line of src/dsproc ran")
