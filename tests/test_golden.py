"""Golden outputs of the README walkthrough on the fixtures.

``tests/fixtures/golden`` holds the report and the text view written by
``monitor``, and the SHA-256 of every other output (``SHA256SUMS``; the
event log is too large to check in). Any change to a byte of these outputs
must come with a deliberate update of the golden files.
"""

import hashlib
import shutil

import pytest

from dsproc import cli

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    work = tmp_path_factory.mktemp("walkthrough")
    for name in ("order_handling.dsml", "order_handling.dsproc",
                 "bindings.json", "sim.json"):
        shutil.copy(FIXTURES / name, work / name)
    domain = str(work / "order_handling.dsml")
    mappings = str(work / "mappings.json")
    steps = [
        ["gen", str(work / "order_handling.dsproc"), "--domain", domain,
         "--mappings", mappings, "-o", str(work / "order.bpmn")],
        ["bind", "--domain", domain, "--bindings", str(work / "bindings.json"),
         "--mappings", mappings, "--process", "HandleOrder",
         "-o", str(work / "manifest.json")],
        ["run", str(work / "order.bpmn"), "--manifest", str(work / "manifest.json"),
         "--sim", str(work / "sim.json"), "-o", str(work / "events.jsonl")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return work


def test_monitor_output_matches_golden(walkthrough, capsys):
    work = walkthrough
    code = cli.main(["monitor", str(work / "events.jsonl"),
                     "--mappings", str(work / "mappings.json"),
                     "--domain", str(work / "order_handling.dsml"),
                     "--report", str(work / "report.json"),
                     "--alert-out", str(work / "alerts.jsonl")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "monitor_stdout.txt").read_text(encoding="utf-8")
    assert (work / "report.json").read_bytes() == (GOLDEN / "report.json").read_bytes()
    assert _sha256(work / "alerts.jsonl") == _pinned()["alerts.jsonl"]


@pytest.mark.parametrize("name", ["order.bpmn", "mappings.json", "manifest.json",
                                  "events.jsonl"])
def test_output_digest_matches_golden(walkthrough, name):
    assert _sha256(walkthrough / name) == _pinned()[name]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned() -> dict:
    digests = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests
