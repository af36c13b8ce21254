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

import pytest

from dsproc import cli, domain as dom, mappings

from conftest import FIXTURES, SOURCES, WALKTHROUGH, copy_walkthrough

GOLDEN = FIXTURES / "golden"


def test_monitor_output_matches_golden(walkthrough, tmp_path, capsys):
    code = cli.main(["monitor", str(walkthrough / "events.jsonl"),
                     "--mappings", str(walkthrough / "mappings.json"),
                     "--domain", str(walkthrough / "order_handling.dsml"),
                     "--report", str(tmp_path / "report.json"),
                     "--alert-out", str(tmp_path / "alerts.jsonl")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "monitor_stdout.txt").read_text(encoding="utf-8")
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / "report.json").read_bytes()
    assert _sha256(tmp_path / "alerts.jsonl") == _pinned()["alerts.jsonl"]


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
    for name in SOURCES:
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


# ---------------------------------------------------------------------------
# a technical task: the modeller adds a serviceTask with no conceptRef to the
# generated file, sync keeps it, and run times it by the default profile

TECHNICAL = FIXTURES / "technical"
_AUDIT_EDIT = (
    '    <bpmn:sequenceFlow id="f_u9_u10" sourceRef="u9" targetRef="u10"/>\n',
    '    <bpmn:serviceTask id="audit" name="Audit"/>\n'
    '    <bpmn:sequenceFlow id="f_u9_audit" sourceRef="u9" targetRef="audit"/>\n'
    '    <bpmn:sequenceFlow id="f_audit_u10" sourceRef="audit" targetRef="u10"/>\n')


def test_a_technical_task_timed_by_the_default_profile_is_pinned(walkthrough, tmp_path,
                                                                  capsys):
    copy_walkthrough(tmp_path, ("order_handling.dsml", "order_handling.dsproc", "bindings.json",
                                "mappings.json"), walkthrough)
    xml = (walkthrough / "order.bpmn").read_text(encoding="utf-8")
    assert xml.count(_AUDIT_EDIT[0]) == 1
    (tmp_path / "edited.bpmn").write_text(xml.replace(*_AUDIT_EDIT), encoding="utf-8")
    sim = (FIXTURES / "sim.json").read_text(encoding="utf-8")
    (tmp_path / "sim.json").write_text(
        sim.replace('"branch_probs": {}', '"branch_probs": {},\n  "default_profile": "medium"'),
        encoding="utf-8")
    store = ["--domain", str(tmp_path / "order_handling.dsml"),
             "--mappings", str(tmp_path / "mappings.json")]
    capsys.readouterr()
    assert cli.main(["sync", str(tmp_path / "order_handling.dsproc"), *store,
                     "--edited", str(tmp_path / "edited.bpmn"),
                     "-o", str(tmp_path / "merged.bpmn")]) == 0
    assert capsys.readouterr() == ("technical addition: audit\n", "")
    for argv in (
        ["bind", *store, "--bindings", str(tmp_path / "bindings.json"),
         "--process", "HandleOrder", "-o", str(tmp_path / "manifest.json")],
        ["run", str(tmp_path / "merged.bpmn"), "--manifest", str(tmp_path / "manifest.json"),
         "--sim", str(tmp_path / "sim.json"), "-o", str(tmp_path / "events.jsonl")],
        ["monitor", str(tmp_path / "events.jsonl"), *store,
         "--report", str(tmp_path / "report.json")],
    ):
        assert cli.main(argv) == 0, argv[0]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    # every instance runs the audit once, between u9 and u10
    assert report["processes"]["HandleOrder"]["technical"]["count"] == 100
    digests = dict(line.split()[::-1] for line in
                   (TECHNICAL / "SHA256SUMS").read_text(encoding="utf-8").splitlines())
    assert {name: _sha256(tmp_path / name) for name in digests} == digests
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
        (TECHNICAL / "report.json").read_text(encoding="utf-8")


# lanes, artifacts and data, which are no flow nodes (OMG BPMN 2.0,
# formal/11-01-03, section 10), planted in the process and in subProcess u12
_NO_FLOW_NODES = [
    ('  <bpmn:process id="HandleOrder" isExecutable="true">\n',
     '  <bpmn:process id="HandleOrder" isExecutable="true">\n'
     '    <bpmn:laneSet id="lanes1">\n'
     '      <bpmn:lane id="lane1"><bpmn:flowNodeRef>u3</bpmn:flowNodeRef></bpmn:lane>\n'
     '    </bpmn:laneSet>\n'),
    ('    </bpmn:subProcess>\n',
     '      <bpmn:textAnnotation id="note2"><bpmn:text>Shipping</bpmn:text></bpmn:textAnnotation>\n'
     '    </bpmn:subProcess>\n'),
    ('  </bpmn:process>\n',
     '    <bpmn:textAnnotation id="note1"><bpmn:text>Checked</bpmn:text></bpmn:textAnnotation>\n'
     '    <bpmn:association id="assoc1" sourceRef="u3" targetRef="note1"/>\n'
     '    <bpmn:group id="group1"/>\n'
     '    <bpmn:dataObject id="data1"/>\n'
     '    <bpmn:dataObjectReference id="dataref1" dataObjectRef="data1"/>\n'
     '    <bpmn:dataStoreReference id="store1"/>\n'
     '  </bpmn:process>\n'),
]


def test_sync_reports_no_lane_artifact_or_data_as_a_technical_addition(walkthrough, tmp_path,
                                                                        capsys):
    xml = (walkthrough / "order.bpmn").read_text(encoding="utf-8")
    for old, new in _NO_FLOW_NODES:
        assert xml.count(old) == 1
        xml = xml.replace(old, new)
    edited, merged = tmp_path / "edited.bpmn", tmp_path / "merged.bpmn"
    edited.write_text(xml, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["sync", str(walkthrough / "order_handling.dsproc"),
                     "--domain", str(walkthrough / "order_handling.dsml"),
                     "--mappings", str(walkthrough / "mappings.json"),
                     "--edited", str(edited), "-o", str(merged)]) == 0
    assert capsys.readouterr() == ("", "")
    assert merged.read_bytes() == edited.read_bytes()
    # they change no run either
    assert cli.main(["run", str(merged), "--manifest", str(walkthrough / "manifest.json"),
                     "--sim", str(walkthrough / "sim.json"),
                     "-o", str(tmp_path / "events.jsonl")]) == 0
    assert _sha256(tmp_path / "events.jsonl") == _pinned()["events.jsonl"]


# ---------------------------------------------------------------------------
# stores and manifests as earlier versions of dsproc wrote them

def _copy_walkthrough(walkthrough, work):
    # not the log: run must write it again
    copy_walkthrough(work, [name for name in WALKTHROUGH if name != "events.jsonl"], walkthrough)


def _write_json(path, doc):
    """Write ``doc`` to ``path`` in the layout dsproc writes."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _gives_the_walkthrough_outputs(walkthrough, work, capsys):
    """``bind``, ``run`` and ``monitor`` of the copy ``work`` write the
    walkthrough's bytes, and ``gen`` writes its store back as the walkthrough's."""
    store = ["--domain", str(work / "order_handling.dsml"),
             "--mappings", str(work / "mappings.json")]
    assert cli.main(["bind", *store, "--bindings", str(work / "bindings.json"),
                     "--process", "HandleOrder", "-o", str(work / "bound.json")]) == 0
    assert (work / "bound.json").read_bytes() == (walkthrough / "manifest.json").read_bytes()
    assert cli.main(["run", str(work / "order.bpmn"),
                     "--manifest", str(work / "manifest.json"),
                     "--sim", str(work / "sim.json"),
                     "-o", str(work / "events.jsonl")]) == 0
    assert (work / "events.jsonl").read_bytes() == (walkthrough / "events.jsonl").read_bytes()
    capsys.readouterr()
    assert cli.main(["monitor", str(work / "events.jsonl"), *store,
                     "--report", str(work / "report.json"),
                     "--alert-out", str(work / "alerts.jsonl")]) == 0
    assert capsys.readouterr() == (
        (GOLDEN / "monitor_stdout.txt").read_text(encoding="utf-8"), "")
    assert (work / "report.json").read_bytes() == (GOLDEN / "report.json").read_bytes()
    assert _sha256(work / "alerts.jsonl") == _pinned()["alerts.jsonl"]
    assert cli.main(["gen", str(work / "order_handling.dsproc"), *store,
                     "-o", str(work / "order.bpmn")]) == 0
    assert (work / "mappings.json").read_bytes() == (walkthrough / "mappings.json").read_bytes()


def test_a_store_and_a_manifest_that_repeat_each_uid_as_element_give_the_same_outputs(
        walkthrough, tmp_path, capsys):
    _copy_walkthrough(walkthrough, tmp_path)
    for name, key in (("mappings.json", "am"), ("manifest.json", "activities")):
        doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        for uid, entry in doc[key].items():
            entry["element"] = uid
        _write_json(tmp_path / name, doc)
    _gives_the_walkthrough_outputs(walkthrough, tmp_path, capsys)


def test_a_store_with_a_stale_copy_of_each_concepts_services_gives_the_same_outputs(
        walkthrough, tmp_path, capsys):
    # each concept's services as the store held them, written before the
    # domain gave ApproveOrder svcApprove in place of svcReview
    _copy_walkthrough(walkthrough, tmp_path)
    cm = mappings.build_cm(dom.parse_domain(
        (tmp_path / "order_handling.dsml").read_text(encoding="utf-8")))
    assert cm["ApproveOrder"] == ["svcApprove"]
    doc = json.loads((tmp_path / "mappings.json").read_text(encoding="utf-8"))
    doc["cm"] = dict(cm, ApproveOrder=["svcReview"])
    _write_json(tmp_path / "mappings.json", doc)
    _gives_the_walkthrough_outputs(walkthrough, tmp_path, capsys)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned() -> dict:
    digests = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests
