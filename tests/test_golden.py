"""Golden outputs of the README walkthrough on the fixtures.

``tests/fixtures/golden`` holds the report and the text view written by
``monitor``, and the SHA-256 of every other output (``SHA256SUMS``; the
event log is too large to check in). Any change to a byte of these outputs
must come with a deliberate update of the golden files.

The walkthrough raises no alert, so :func:`test_an_alerting_run_is_pinned`
tightens its SLAs, makes a second activity of one concept and lets it fault,
and pins the alerts, their stdout lines and the report that run gives.
"""

import hashlib
import json
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


# (old, new) text edits of the walkthrough's fixtures that make each SLA
# metric alert: a tighter max_duration and max_mean_duration, and a
# max_fault_rate SLA on ReviewComment, whose second activity ``recheck``
# (uid u11) faults; both activities of ReviewComment carry that SLA
_ALERTING_EDITS = {
    "order_handling.dsml": [
        ("sla ShippingTwoDays { max_duration 2 d severity critical }",
         "sla ShippingTwoDays { max_duration 850 ms severity critical }\n"
         "  sla ReviewFaults { max_fault_rate 0.02 ratio severity info }"),
        ("max_mean_duration 1 h", "max_mean_duration 200 ms"),
        ("    services [svcReview]\n", "    services [svcReview]\n    sla ReviewFaults\n"),
    ],
    "order_handling.dsproc": [
        ("  node review: concept ReviewComment\n",
         "  node review: concept ReviewComment\n  node recheck: concept ReviewComment\n"),
        ("  review -> approve\n", "  review -> recheck\n  recheck -> approve\n"),
    ],
    "sim.json": [('"instance_count": 100', '"instance_count": 20'),
                 ('"branch_probs": {}', '"branch_probs": {},\n  "fault_probs": {"u11": 0.1}')],
}

_PINNED_ALERTS = [
    {"sla": "ShippingTwoDays", "subject": "ShipAndConfirm", "metric": "max_duration",
     "observed": 892.3398381789026, "threshold": 850.0, "severity": "critical",
     "first_ts": 3351.8038923646277, "last_ts": 3957.5640401004453, "instances": [12, 19]},
    {"sla": "PaymentOneHour", "subject": "HandlePayment", "metric": "max_mean_duration",
     "observed": 208.3982786423156, "threshold": 200.0, "severity": "warning",
     "first_ts": 1267.2061351965574, "last_ts": 2629.1888225278963, "instances": []},
    {"sla": "ReviewFaults", "subject": "ReviewComment", "metric": "max_fault_rate",
     "observed": 0.025, "threshold": 0.02, "severity": "info",
     "first_ts": 1199.0438752909063, "last_ts": 1199.0438752909063, "instances": [10]},
]
_PINNED_ALERT_LINES = [
    "ALERT [critical] ShipAndConfirm: max_duration observed 892.34 > threshold 850 "
    "(sla ShippingTwoDays)",
    "ALERT [warning] HandlePayment: max_mean_duration observed 208.398 > threshold 200 "
    "(sla PaymentOneHour)",
    "ALERT [info] ReviewComment: max_fault_rate observed 0.025 > threshold 0.02 "
    "(sla ReviewFaults)",
]
_PINNED_REPORT_SHA256 = "7f9774c4ce97b446ec484c745ce9d38d7048fd748cea110ae88e9f4e26db2605"


def test_an_alerting_run_is_pinned(tmp_path, capsys):
    for name in ("order_handling.dsml", "order_handling.dsproc", "bindings.json", "sim.json"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        for old, new in _ALERTING_EDITS.get(name, ()):
            assert text.count(old) == 1, (name, old)
            text = text.replace(old, new)
        (tmp_path / name).write_text(text, encoding="utf-8")
    domain, mappings = str(tmp_path / "order_handling.dsml"), str(tmp_path / "mappings.json")
    for argv in (
        ["gen", str(tmp_path / "order_handling.dsproc"), "--domain", domain,
         "--mappings", mappings, "-o", str(tmp_path / "order.bpmn")],
        ["bind", "--domain", domain, "--bindings", str(tmp_path / "bindings.json"),
         "--mappings", mappings, "--process", "HandleOrder",
         "-o", str(tmp_path / "manifest.json")],
        ["run", str(tmp_path / "order.bpmn"), "--manifest", str(tmp_path / "manifest.json"),
         "--sim", str(tmp_path / "sim.json"), "-o", str(tmp_path / "events.jsonl")],
    ):
        assert cli.main(argv) == 0, argv[0]
    capsys.readouterr()
    assert cli.main(["monitor", str(tmp_path / "events.jsonl"), "--mappings", mappings,
                     "--domain", domain, "--report", str(tmp_path / "report.json"),
                     "--alert-out", str(tmp_path / "alerts.jsonl")]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "alerts.jsonl").read_text(encoding="utf-8") == \
        "".join(json.dumps(alert) + "\n" for alert in _PINNED_ALERTS)
    assert [line for line in out.splitlines() if line.startswith("ALERT")] == \
        _PINNED_ALERT_LINES
    assert out.endswith("\n".join(_PINNED_ALERT_LINES) + "\n")
    assert _sha256(tmp_path / "report.json") == _PINNED_REPORT_SHA256


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned() -> dict:
    digests = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests
