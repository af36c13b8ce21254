"""The benchmark's span probes name functions that exist.

``bench/spans.py`` rebinds each ``PROBES`` target as a module attribute of
``dsproc.<module>``; a renamed or deleted target would only surface in a
traced benchmark run. This checks the whole table in a fraction of a second.
"""

import importlib
import sys
from pathlib import Path

import pytest

from dsproc import engine, eventlog

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def probes():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans.PROBES


def test_every_probe_target_is_a_function_of_its_module(probes):
    assert probes
    for module, function, _span, _counts in probes:
        target = getattr(importlib.import_module(f"dsproc.{module}"), function, None)
        assert callable(target), f"dsproc.{module}.{function}"


def test_the_engine_probe_wraps_the_log_writer():
    # the probe wraps engine.render_log, which run calls; it must be the writer itself
    assert engine.render_log is eventlog.render_log
