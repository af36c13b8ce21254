"""The benchmark's span probes name functions that exist, and count what
the toolchain hands them.

``bench/spans.py`` rebinds each ``PROBES`` target as a module attribute of
``dsproc.<module>``, and reads its counts from the target's arguments and
result; a renamed or deleted target, or a count function that no longer
fits its target, would only surface in a traced benchmark run. This checks
the whole table, and one traced walkthrough, in a fraction of a second.
"""

import importlib
import sys
from pathlib import Path

import pytest

from dsproc import cli, engine, eventlog

from conftest import copy_walkthrough

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


@pytest.fixture(scope="module")
def probes(spans):
    return spans.PROBES


def test_every_probe_target_is_a_function_of_its_module(probes):
    assert probes
    for module, function, _span, _counts in probes:
        target = getattr(importlib.import_module(f"dsproc.{module}"), function, None)
        assert callable(target), f"dsproc.{module}.{function}"


def test_the_engine_probe_wraps_the_log_writer():
    # the probe wraps engine.render_log, which run calls; it must be the writer itself
    assert engine.render_log is eventlog.render_log


def test_the_traced_walkthrough_runs_every_count_function_it_reaches(spans, tmp_path,
                                                                     monkeypatch):
    monkeypatch.chdir(copy_walkthrough(tmp_path))
    store = ["--domain", "order_handling.dsml", "--mappings", "mappings.json"]
    gen = ["gen", "order_handling.dsproc", *store, "-o", "order.bpmn"]
    commands = [gen, gen,
                ["bind", *store, "--bindings", "bindings.json", "--process", "HandleOrder",
                 "-o", "manifest.json"],
                ["run", "order.bpmn", "--manifest", "manifest.json", "--sim", "sim.json",
                 "-o", "events.jsonl"],
                ["monitor", "events.jsonl", *store, "--report", "report.json"]]
    tracer = spans.Tracer()
    with tracer.instrument():  # a count function that raises fails its command
        for pass_id, argv in enumerate(commands):
            tracer.pass_id = pass_id
            assert cli.main(argv) == 0
    # the first gen allocates a uid to each of the walkthrough's 18 nodes, the second none
    assert [tracer.totals(pass_id)[1]["mappings.uid_allocations"] for pass_id in (0, 1)] \
        == [18, 0]
    counted = {name for _module, _function, name, count in spans.PROBES if count is not None}
    assert {s.name for s in tracer.spans if s.counts} == counted
    assert all(s.counts for s in tracer.spans if s.name in counted)
