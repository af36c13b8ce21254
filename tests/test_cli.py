import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dsproc import bpmn, cli, deploy, engine, mappings
from dsproc.diagnostics import DsprocError

from conftest import FIXTURES


@pytest.fixture
def work(tmp_path):
    for name in ("order_handling.dsml", "order_handling.dsproc",
                 "bindings.json", "sim.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def _gen(work, out="order.bpmn", mappings="mappings.json"):
    return cli.main([
        "gen", str(work / "order_handling.dsproc"),
        "--domain", str(work / "order_handling.dsml"),
        "--mappings", str(work / mappings),
        "-o", str(work / out),
    ])


def test_check_clean_fixtures(work, capsys):
    code = cli.main(["check", str(work / "order_handling.dsml"),
                     str(work / "order_handling.dsproc")])
    assert code == 0
    assert "error" not in capsys.readouterr().out


def test_check_reports_domain_error(work, capsys):
    bad = work / "bad.dsml"
    bad.write_text('domain D { concept A { label "a" } }', encoding="utf-8")
    assert cli.main(["check", str(bad)]) == 1


# four domain errors; the process has two unknown concepts, and each of its
# nodes is unreachable and has no outgoing flow
_BAD_DOMAIN = """domain D {
  concept A { label "a" services [s1] }
  concept A { label "a" services [s2] sla fast }
}
"""
_BAD_PROCESS = """process P uses D {
  start -> end
  node b: concept Zzz
  node c: concept Yyy
}
"""


def test_check_lists_every_diagnostic_of_the_domain_and_each_process(tmp_path, capsys):
    d, p = tmp_path / "d.dsml", tmp_path / "p.dsproc"
    d.write_text(_BAD_DOMAIN, encoding="utf-8")
    p.write_text(_BAD_PROCESS, encoding="utf-8")
    assert cli.main(["check", str(d), str(p)]) == 1
    assert capsys.readouterr() == (
        f"{d}: error: duplicate concept name 'A'\n"
        f"{d}: error: concept 'A' references undeclared service 's1'\n"
        f"{d}: error: concept 'A' references undeclared service 's2'\n"
        f"{d}: error: concept 'A' references undeclared SLA 'fast'\n"
        f"{p}: error at 3: unknown concept 'Zzz'\n"
        f"{p}: error at 4: unknown concept 'Yyy'\n"
        f"{p}: error at 3: node 'b' is unreachable from start\n"
        f"{p}: error at 4: node 'c' is unreachable from start\n"
        f"{p}: error at 3: node 'b' has no outgoing flow\n"
        f"{p}: error at 4: node 'c' has no outgoing flow\n", "")


def test_gen_stops_at_the_first_error_and_locates_it(work, capsys):
    bad_domain, bad_process = work / "d.dsml", work / "p.dsproc"
    bad_domain.write_text(_BAD_DOMAIN, encoding="utf-8")
    bad_process.write_text(_BAD_PROCESS.replace("uses D", "uses OrderHandling"),
                           encoding="utf-8")
    argv = ["gen", str(work / "order_handling.dsproc"), "--domain", str(bad_domain),
            "--mappings", str(work / "mappings.json"), "-o", str(work / "out.bpmn")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad_domain}: duplicate concept name 'A'\n"
    argv[1], argv[3] = str(bad_process), str(work / "order_handling.dsml")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad_process}:3: unknown concept 'Zzz'\n"


def test_gen_writes_bpmn_and_mappings(work):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    assert "<bpmn:definitions" in xml and "dsml:conceptRef" in xml
    store = json.loads((work / "mappings.json").read_text(encoding="utf-8"))
    assert set(store) == {"am", "cm", "domain", "uids"}


def test_gen_is_idempotent(work):
    assert _gen(work) == 0
    first_xml = (work / "order.bpmn").read_bytes()
    first_store = (work / "mappings.json").read_bytes()
    assert _gen(work) == 0
    assert (work / "order.bpmn").read_bytes() == first_xml
    assert (work / "mappings.json").read_bytes() == first_store


def _sync(work, edited, out="merged.bpmn"):
    return cli.main([
        "sync", str(work / "order_handling.dsproc"),
        "--domain", str(work / "order_handling.dsml"),
        "--mappings", str(work / "mappings.json"),
        "--edited", str(edited),
        "-o", str(work / out),
    ])


def test_sync_clean_edit_exits_zero(work):
    assert _gen(work) == 0
    assert _sync(work, work / "order.bpmn") == 0


def test_sync_reports_technical_addition(work, capsys):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    edited = work / "edited.bpmn"
    edited.write_text(xml.replace(
        "</bpmn:process>",
        '  <bpmn:task id="A9" name="audit"/>\n  </bpmn:process>'), encoding="utf-8")
    assert _sync(work, edited) == 0
    assert "technical addition: A9" in capsys.readouterr().out
    assert 'id="A9"' in (work / "merged.bpmn").read_text(encoding="utf-8")


def test_sync_broken_mapping_exits_two(work, capsys):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    edited = work / "edited.bpmn"
    edited.write_text(xml.replace('<dsml:conceptRef uid="u3" ', "<skip "),
                      encoding="utf-8")
    assert _sync(work, edited) == 2
    assert "broken mapping: uid u3" in capsys.readouterr().err


def test_sync_reports_a_node_the_model_added_not_a_removed_one(work, capsys):
    assert _gen(work) == 0
    source = work / "order_handling.dsproc"
    source.write_text(source.read_text(encoding="utf-8")
                      .replace("  node fulfill", "  node extra: concept RunOcr\n  node fulfill")
                      .replace("  review -> approve", "  review -> extra\n  extra -> approve"),
                      encoding="utf-8")
    capsys.readouterr()
    # the edited file is the one gen wrote before the model gained `extra`
    assert _sync(work, work / "order.bpmn") == 2
    assert capsys.readouterr() == (
        "", "model addition: uid u19 (HandleOrder/extra) is missing from the edited model\n")


_CAMUNDA_NS = "http://camunda.org/schema/1.0/bpmn"
_BPMNDI_NS = "http://www.omg.org/spec/BPMN/20100524/DI"
_DC_NS = "http://www.omg.org/spec/DD/20100524/DC"


def test_sync_writes_an_enriched_file_unchanged_and_is_a_fixed_point(work, capsys):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    enriched = work / "enriched.bpmn"
    enriched.write_text(
        xml.replace('xmlns:dsml="urn:dsml:1"',
                    f'xmlns:dsml="urn:dsml:1" xmlns:camunda="{_CAMUNDA_NS}" '
                    f'xmlns:bpmndi="{_BPMNDI_NS}" xmlns:dc="{_DC_NS}"')
        .replace('<bpmn:serviceTask id="u3" name="Receive Web Order">',
                 '<bpmn:serviceTask id="u3" name="Receive Web Order" camunda:asyncBefore="true">\n'
                 '      <bpmn:documentation>Checked by the order desk.</bpmn:documentation>')
        .replace("</bpmn:definitions>",
                 '  <bpmndi:BPMNDiagram id="diagram">\n'
                 '    <bpmndi:BPMNPlane id="plane" bpmnElement="HandleOrder">\n'
                 '      <bpmndi:BPMNShape id="shape_u3" bpmnElement="u3">\n'
                 '        <dc:Bounds x="100" y="80" width="100" height="80"/>\n'
                 "      </bpmndi:BPMNShape>\n"
                 "    </bpmndi:BPMNPlane>\n"
                 "  </bpmndi:BPMNDiagram>\n"
                 "</bpmn:definitions>"),
        encoding="utf-8")
    assert enriched.read_text(encoding="utf-8").count("camunda:asyncBefore") == 1
    assert _sync(work, enriched, out="once.bpmn") == 0
    assert (work / "once.bpmn").read_bytes() == enriched.read_bytes()
    assert _sync(work, work / "once.bpmn", out="twice.bpmn") == 0
    assert (work / "twice.bpmn").read_bytes() == enriched.read_bytes()
    assert capsys.readouterr() == ("", "")


def _bind(work, process="HandleOrder"):
    return cli.main([
        "bind",
        "--domain", str(work / "order_handling.dsml"),
        "--bindings", str(work / "bindings.json"),
        "--mappings", str(work / "mappings.json"),
        "--process", process,
        "-o", str(work / "manifest.json"),
    ])


def test_bind_produces_manifest(work):
    assert _gen(work) == 0
    assert _bind(work) == 0
    doc = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    assert doc["process"] == "HandleOrder"
    assert doc["activities"]


def test_bind_unknown_process_fails(work, capsys):
    assert _gen(work) == 0
    assert _bind(work, process="Ghost") == 1
    assert "unknown process" in capsys.readouterr().err


def _run(work, seed=None, out="events.jsonl"):
    argv = ["run", str(work / "order.bpmn"),
            "--manifest", str(work / "manifest.json"),
            "--sim", str(work / "sim.json"),
            "-o", str(work / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv)


def test_run_rejects_a_loop_it_can_never_leave(tmp_path, capsys):
    (tmp_path / "t.dsml").write_text(
        'domain T { service sa { operation "a" } concept A { label "A" services [sa] } }',
        encoding="utf-8")
    (tmp_path / "p.dsproc").write_text(
        'process P uses T {\n  node t: concept A\n  node g: exclusive\n  start -> t\n'
        '  t -> g\n  g -> t when "loop"\n  g -> end when "exit"\n}\n', encoding="utf-8")
    (tmp_path / "b.json").write_text(
        '{"bindings": {"sa": {"endpoint": "sim://a", "profile": "p"}}}', encoding="utf-8")
    assert cli.main(["gen", str(tmp_path / "p.dsproc"), "--domain", str(tmp_path / "t.dsml"),
                     "--mappings", str(tmp_path / "m.json"), "-o", str(tmp_path / "p.bpmn")]) == 0
    assert cli.main(["bind", "--domain", str(tmp_path / "t.dsml"),
                     "--bindings", str(tmp_path / "b.json"), "--mappings", str(tmp_path / "m.json"),
                     "--process", "P", "-o", str(tmp_path / "man.json")]) == 0
    model = bpmn.parse_bpmn((tmp_path / "p.bpmn").read_text(encoding="utf-8"))
    t = next(e for e in model.elements if e.name == "A")
    g = next(e for e in model.elements if e.kind == "exclusiveGateway")
    (tmp_path / "sim.json").write_text(json.dumps({
        "profiles": {"p": {"kind": "fixed", "value": 1}},
        "branch_probs": {g.id: {f.id: 1.0 if f.target == t.id else 0.0
                                for f in model.flows if f.source == g.id}}}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["run", str(tmp_path / "p.bpmn"), "--manifest", str(tmp_path / "man.json"),
                     "--sim", str(tmp_path / "sim.json"), "-o", str(tmp_path / "ev.jsonl")]) == 1
    assert capsys.readouterr().err == (
        f"error: P: element {t.id!r} is on a loop that no flow of nonzero probability "
        "leaves for an end event, a dead end or a fault\n")
    assert not (tmp_path / "ev.jsonl").exists()


@pytest.mark.parametrize("field, value, message", [
    ("fault_probs", {"nope": 1.0},
     "field 'fault_probs.nope' names no activity of process 'HandleOrder'"),
    ("fault_probs", {"u2": 1.0},
     "field 'fault_probs.u2' names no activity of process 'HandleOrder'"),
    ("branch_probs", {"route": {"x": 1.0}},
     "field 'branch_probs.route' names no exclusive gateway of process 'HandleOrder'"),
    ("branch_probs", {"u3": {"f_u3_u8": 1.0}},
     "field 'branch_probs.u3' names no exclusive gateway of process 'HandleOrder'"),
], ids=["unknown-activity", "gateway-as-activity", "gateway-by-node-name",
        "activity-as-gateway"])
def test_run_rejects_probabilities_for_elements_that_do_not_exist(work, capsys, field, value,
                                                                   message):
    assert _gen(work) == 0
    assert _bind(work) == 0
    sim = json.loads((work / "sim.json").read_text(encoding="utf-8"))
    sim[field] = value
    (work / "sim.json").write_text(json.dumps(sim), encoding="utf-8")
    capsys.readouterr()
    assert _run(work) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (work / "events.jsonl").exists()


def test_full_pipeline_and_determinism(work):
    assert _gen(work) == 0
    assert _bind(work) == 0
    assert _run(work, out="a.jsonl") == 0
    assert _run(work, out="b.jsonl") == 0
    assert (work / "a.jsonl").read_bytes() == (work / "b.jsonl").read_bytes()
    assert _run(work, seed=99, out="c.jsonl") == 0
    assert (work / "a.jsonl").read_bytes() != (work / "c.jsonl").read_bytes()
    header = json.loads((work / "a.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["log_version"] == 1


def test_monitor_writes_report_and_alerts(work, capsys):
    assert _gen(work) == 0
    assert _bind(work) == 0
    assert _run(work) == 0
    code = cli.main([
        "monitor", str(work / "events.jsonl"),
        "--mappings", str(work / "mappings.json"),
        "--domain", str(work / "order_handling.dsml"),
        "--report", str(work / "report.json"),
        "--alert-out", str(work / "alerts.jsonl"),
    ])
    assert code == 0
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    assert "HandlePayment" in report["concepts"]
    assert report["processes"]["HandleOrder"]["instances"] == 100
    out = capsys.readouterr().out
    assert "HandlePayment" in out


def test_monitor_rejects_foreign_log(work, capsys):
    assert _gen(work) == 0
    (work / "events.jsonl").write_text(
        '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}\n'
        '{"seq": 1, "ts_ms": 0, "kind": "processStart", "process": "Ghost", '
        '"instance": 1}\n', encoding="utf-8")
    code = cli.main([
        "monitor", str(work / "events.jsonl"),
        "--mappings", str(work / "mappings.json"),
        "--domain", str(work / "order_handling.dsml"),
    ])
    assert code == 1
    assert "Ghost" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    "5",
    "null",
    '{"seq": 1, "ts_ms": 0, "kind": "processStart", "process": "HandleOrder", '
    '"instance": [1]}',
    '{"seq": 1, "ts_ms": 5, "kind": "activityEnd", "process": "HandleOrder", '
    '"instance": 1, "element_uid": "u3", "duration_ms": "7"}',
], ids=["number", "null", "list-instance", "string-duration"])
def test_monitor_malformed_record_exits_one_without_traceback(work, record):
    assert _gen(work) == 0
    (work / "events.jsonl").write_text(
        '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}\n' + record + "\n",
        encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "dsproc.cli", "monitor", str(work / "events.jsonl"),
         "--mappings", str(work / "mappings.json"),
         "--domain", str(work / "order_handling.dsml")],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert f"error: {work / 'events.jsonl'}: line 2: malformed record" in result.stderr
    assert "Traceback" not in result.stderr


def test_module_entry_point(work):
    result = subprocess.run(
        [sys.executable, "-m", "dsproc.cli", "check",
         str(work / "order_handling.dsml")],
        capture_output=True, text=True)
    assert result.returncode == 0


def test_importing_the_cli_does_not_import_pathlib():
    # -I -S: no site-packages, no PYTHONPATH, so only the stdlib and dsproc load
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         "import sys; sys.path.insert(0, 'src'); import dsproc.cli; "
         "print('pathlib' in sys.modules)"],
        capture_output=True, text=True, cwd=FIXTURES.resolve().parent.parent)
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_missing_file_is_an_error_not_a_traceback(work, capsys):
    code = cli.main(["gen", str(work / "nope.dsproc"),
                     "--domain", str(work / "order_handling.dsml"),
                     "--mappings", str(work / "mappings.json"),
                     "-o", str(work / "out.bpmn")])
    assert code == 1



@pytest.mark.parametrize("command", [_gen, _run], ids=["gen", "run"])
def test_unwritable_output_exits_one_without_traceback(work, capsys, command):
    assert _gen(work) == 0
    assert _bind(work) == 0
    assert command(work, out="nodir/out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nodir" in err


@pytest.mark.parametrize("bad, command", [
    ("bindings.json", _bind),
    ("mappings.json", _bind),
    ("manifest.json", _run),
    ("sim.json", _run),
], ids=["bindings", "mappings", "manifest", "sim"])
def test_malformed_json_input_names_the_file(work, capsys, bad, command):
    assert _gen(work) == 0
    assert _bind(work) == 0
    (work / bad).write_text("{bad", encoding="utf-8")
    assert command(work) == 1
    assert capsys.readouterr().err.startswith(f"error: {work / bad}: malformed JSON: ")


def test_run_names_a_malformed_bpmn_file(work, capsys):
    assert _gen(work) == 0
    assert _bind(work) == 0
    (work / "order.bpmn").write_text("<bad", encoding="utf-8")
    assert _run(work) == 1
    assert capsys.readouterr().err.startswith(f"error: {work / 'order.bpmn'}: malformed XML: ")


def _latin1_domain(work):
    path = work / "order_handling.dsml"
    path.write_bytes(path.read_bytes().replace(b"domain OrderHandling {",
                                               b'domain OrderHandling {\n  # Pr\xfcfung'))
    return path, ["check", str(path)]


def _latin1_edited(work):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    path = work / "edited.bpmn"
    path.write_bytes(xml.replace('encoding="UTF-8"', 'encoding="ISO-8859-1"')
                     .replace('name="Receive Web Order"', 'name="Prüfung"')
                     .encode("iso-8859-1"))
    return path, ["sync", str(work / "order_handling.dsproc"),
                  "--domain", str(work / "order_handling.dsml"),
                  "--mappings", str(work / "mappings.json"),
                  "--edited", str(path), "-o", str(work / "merged.bpmn")]


def _latin1_log(work):
    assert _gen(work) == 0
    path = work / "events.jsonl"
    path.write_bytes(b'{"log_version": 1, "seed": 0, "rng": "python-mt19937"}\n'
                     b'{"process": "Pr\xfcfung"}\n')
    return path, ["monitor", str(path), "--mappings", str(work / "mappings.json"),
                  "--domain", str(work / "order_handling.dsml")]


@pytest.mark.parametrize("make", [_latin1_domain, _latin1_edited, _latin1_log],
                         ids=["check-domain", "sync-edited", "monitor-log"])
def test_input_that_is_not_utf8_is_named_without_traceback(work, capsys, make):
    path, argv = make(work)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text: invalid start byte\n")


def _monitor(work):
    return cli.main(["monitor", str(work / "events.jsonl"),
                     "--mappings", str(work / "mappings.json"),
                     "--domain", str(work / "order_handling.dsml")])


def _drop_concept(text):
    doc = json.loads(text)
    del doc["activities"]["u3"]["concept"]
    return json.dumps(doc)


@pytest.mark.parametrize("bad, edit, command, message", [
    ("bindings.json", lambda _: '{"bindings": {"X": {}}}', _bind,
     "missing field 'bindings.X.endpoint'"),
    ("bindings.json", lambda _: "[]", _bind,
     "the document must be an object, found array"),
    ("sim.json", lambda _: '{"seed": "x"}', _run,
     "field 'seed' must be an integer, found string"),
    ("sim.json", lambda _: '{"profiles": {"p": 3}}', _run,
     "field 'profiles.p' must be an object, found number"),
    ("manifest.json", _drop_concept, _run,
     "missing field 'activities.u3.concept'"),
    ("mappings.json", lambda _: '{"domain": "OrderHandling", "am": {"u1": {}}}', _monitor,
     "missing field 'am.u1.concept'"),
], ids=["binding-without-endpoint", "bindings-array", "string-seed", "number-profile",
        "activity-without-concept", "am-entry-without-concept"])
def test_wrongly_shaped_json_input_names_the_field(work, capsys, bad, edit, command, message):
    assert _gen(work) == 0
    assert _bind(work) == 0
    path = work / bad
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert command(work) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# JSON values built from the field names the input formats use
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-1, 2) | st.sampled_from(
        ["", "x", "fixed", "uniform", "normal"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from([
        "bindings", "endpoint", "profile", "process", "activities", "element", "concept",
        "services", "endpoints", "service", "domain", "am", "cm", "uids", "instance_count",
        "seed", "profiles", "kind", "value", "low", "high", "mean", "stddev",
        "branch_probs", "fault_probs", "default_profile", "x"]), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_json)
def test_json_inputs_of_any_shape_raise_only_dsproc_errors(doc):
    text = json.dumps(doc)
    for parse in (deploy.bindings_from_json, deploy.parse_manifest,
                  mappings.store_from_json, engine.SimulationConfig.from_json):
        try:
            parse(text)
        except DsprocError:
            pass
