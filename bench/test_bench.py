"""Smoke tests of the benchmark: every workload and every check, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> set:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    assert set(result["metrics"]) == _declared("end_to_end" if trace == "0" else "per_layer")
    assert set(result["metrics"]) == set(bench.END_TO_END if trace == "0" else bench.PER_LAYER)


def test_benchmark_json_lists_the_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def _passed(workload: str) -> tuple:
    """A checked smoke pass of ``workload`` and the run that made it."""
    run = bench.Run(workload, 5, smoke=True)
    w = run.setup()
    d = run.fresh("pass", run.dir / "raw")
    results = run.execute(w, bench.steps(w, d), run.subprocess_runner, d)
    assert run.problems == []
    return run, w, d, results


def _findings(w, d, results) -> list:
    return [m for messages in w.check(d, results).values() for m in messages]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_catch_a_wrong_report_and_alerts(workload):
    run, w, d, results = _passed(workload)
    try:
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        concept = next(c for c, e in report["concepts"].items() if e["count"])
        report["concepts"][concept]["count"] += 1
        (d / "report.json").write_text(json.dumps(report), encoding="utf-8")
        assert any(concept in m for m in _findings(w, d, results))

        (d / "report.json").write_text(json.dumps({**report, "processes": {}}), encoding="utf-8")
        assert any("instances" in m for m in _findings(w, d, results))

        with open(d / "alerts.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"subject": concept, "sla": "Invented"}) + "\n")
        assert any("alerts" in m for m in _findings(w, d, results))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def test_checks_catch_compile_path_errors():
    run, w, d, results = _passed("compile_large")
    try:
        sync = next(r for r in results if r.command.kind == "sync")
        sync.stdout += "technical addition: extra\n"
        assert any("technical additions" in m for m in _findings(w, d, results))
        sync.stdout = sync.stdout.replace("technical addition: extra\n", "")

        mappings = json.loads((d / "mappings.json").read_text(encoding="utf-8"))
        uid = sorted(mappings["am"])[0]
        del mappings["am"][uid]
        (d / "mappings.json").write_text(json.dumps(mappings), encoding="utf-8")
        found = _findings(w, d, results)
        assert any("AM" in m for m in found) and any("manifest" in m for m in found)

        log = (d / "events.jsonl").read_text(encoding="utf-8")
        (d / "events.jsonl").write_text(log + log.splitlines()[0] + "\n", encoding="utf-8")
        assert any("differs from the first pass" in m for m in _findings(w, d, results))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def test_refuses_to_run_without_dsproc_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "event_heavy", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
