import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dsproc import bpmn, cli, deploy, engine, eventlog, mappings
from dsproc.diagnostics import MAX_NESTING, DsprocError

from conftest import FIXTURES


# a fresh interpreter without site-packages or PYTHONPATH; -I ignores
# PYTHONDONTWRITEBYTECODE, so -B keeps it from writing bytecode into src
_ISOLATED = (sys.executable, "-B", "-I", "-S")
_SRC = str(FIXTURES.resolve().parent.parent / "src")


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
        f"{d}: error at 3: duplicate concept name 'A'\n"
        f"{d}: error at 2: concept 'A' references undeclared service 's1'\n"
        f"{d}: error at 3: concept 'A' references undeclared service 's2'\n"
        f"{d}: error at 3: concept 'A' references undeclared SLA 'fast'\n"
        f"{p}: error at 3: unknown concept 'Zzz'\n"
        f"{p}: error at 4: unknown concept 'Yyy'\n"
        f"{p}: error at 3: node 'b' is unreachable from start\n"
        f"{p}: error at 4: node 'c' is unreachable from start\n"
        f"{p}: error at 3: node 'b' has no outgoing flow\n"
        f"{p}: error at 4: node 'c' has no outgoing flow\n", "")


def test_check_locates_a_duplicate_node_id_by_line_and_column(work, capsys):
    dup = work / "dup.dsproc"
    dup.write_text("process HandleOrder uses OrderHandling {\n  node a: parallel\n"
                   "  node a: exclusive\n}\n", encoding="utf-8")
    assert cli.main(["check", str(work / "order_handling.dsml"), str(dup)]) == 1
    assert capsys.readouterr() == ("", f"error: {dup}:3:8: duplicate node id 'a'\n")


def test_gen_stops_at_the_first_error_and_locates_it(work, capsys):
    bad_domain, bad_process = work / "d.dsml", work / "p.dsproc"
    bad_domain.write_text(_BAD_DOMAIN, encoding="utf-8")
    bad_process.write_text(_BAD_PROCESS.replace("uses D", "uses OrderHandling"),
                           encoding="utf-8")
    argv = ["gen", str(work / "order_handling.dsproc"), "--domain", str(bad_domain),
            "--mappings", str(work / "mappings.json"), "-o", str(work / "out.bpmn")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad_domain}:3: duplicate concept name 'A'\n"
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


def test_sync_reports_technical_additions_in_document_order(work, capsys):
    assert _gen(work) == 0
    xml = (work / "order.bpmn").read_text(encoding="utf-8")
    assert xml.count("</bpmn:subProcess>") == 1
    edited = work / "edited.bpmn"
    edited.write_text(xml.replace(
        "</bpmn:subProcess>", '  <bpmn:task id="T1" name="inner audit"/>\n'
        "    </bpmn:subProcess>").replace(
        "</bpmn:process>", '  <bpmn:task id="T2" name="outer audit"/>\n  </bpmn:process>'),
        encoding="utf-8")
    assert _sync(work, edited) == 0
    assert capsys.readouterr() == ("technical addition: T1\ntechnical addition: T2\n", "")


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


def test_run_leaves_the_log_reader_pattern_uncompiled(work):
    # in a fresh process, as _modules_loaded_by runs a command
    assert (_gen(work), _bind(work)) == (0, 0)
    script = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import dsproc.cli; "
              "code = dsproc.cli.main(sys.argv[1:]); "
              "print(code, sys.modules['dsproc.eventlog']._CANONICAL)")
    result = subprocess.run(
        [*_ISOLATED, "-c", script, _SRC,
         "run", str(work / "order.bpmn"), "--manifest", str(work / "manifest.json"),
         "--sim", str(work / "sim.json"), "-o", str(work / "events.jsonl")],
        capture_output=True, encoding="utf-8")
    assert (result.stderr, result.stdout) == ("", "0 None\n")


def test_monitor_reads_every_record_of_the_walkthrough_log_by_the_pattern(work, monkeypatch,
                                                                        capsys):
    # the json route may decode the header only; a record line sent there
    # fails the test, so a reader that fell back to it for every line would
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    decode_json = eventlog._decode_json

    def header_only(line):
        values = decode_json(line)
        assert values.__class__ is dict, f"record line read by json.loads: {line}"
        return values
    monkeypatch.setattr(eventlog, "_decode_json", header_only)
    code = cli.main(["monitor", str(work / "events.jsonl"),
                     "--mappings", str(work / "mappings.json"),
                     "--domain", str(work / "order_handling.dsml"),
                     "--report", str(work / "report.json")])
    assert code == 0, capsys.readouterr().err
    golden = FIXTURES / "golden" / "report.json"
    assert (work / "report.json").read_bytes() == golden.read_bytes()


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
    elements, flows = model.levels[()]
    t = next(e for e in elements if e.name == "A")
    g = next(e for e in elements if e.kind == "exclusiveGateway")
    (tmp_path / "sim.json").write_text(json.dumps({
        "profiles": {"p": {"kind": "fixed", "value": 1}},
        "branch_probs": {g.id: {f.id: 1.0 if f.target == t.id else 0.0
                                for f in flows if f.source == g.id}}}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["run", str(tmp_path / "p.bpmn"), "--manifest", str(tmp_path / "man.json"),
                     "--sim", str(tmp_path / "sim.json"), "-o", str(tmp_path / "ev.jsonl")]) == 1
    # the model can finish: the branch probabilities trap the token, so --sim is named
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'sim.json'}: P: element {t.id!r} is on a loop that no flow of "
        "nonzero probability leaves for an end event, a dead end or a fault\n")
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
    assert capsys.readouterr().err == f"error: {work / 'sim.json'}: {message}\n"
    assert not (work / "events.jsonl").exists()


def test_run_rejects_a_fixed_profile_of_infinite_value(work, capsys):
    # an infinite duration made report.json hold Infinity and NaN, which JSON has not
    assert (_gen(work), _bind(work)) == (0, 0)
    sim = work / "sim.json"
    sim.write_text(sim.read_text(encoding="utf-8").replace(
        '"fast": {"kind": "uniform", "low": 10, "high": 50}',
        '"fast": {"kind": "fixed", "value": 1e999}'), encoding="utf-8")
    capsys.readouterr()
    assert _run(work) == 1
    assert capsys.readouterr() == ("", f"error: {sim}: fixed profile requires a finite value\n")
    assert not (work / "events.jsonl").exists()


def _edit(path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _retarget(flow, target):
    """An edit of a BPMN text that points sequence flow ``flow`` at ``target``."""
    return lambda text: _edited_bpmn(text, "retarget", flow, "targetRef", target)


def _set_sim(**fields):
    return lambda text: json.dumps({**json.loads(text), **fields})


def _set_u3_profile(text):
    doc = json.loads(text)
    doc["activities"]["u3"]["endpoints"][0]["profile"] = "nosuch"
    return json.dumps(doc)


# u11_exc takes its exceptional flow to u18 with probability 0.0, and u2 its flow to u3
_NEVER_TO_U18 = _set_sim(branch_probs={"u11_exc": {"f_u11_exc_u12": 1.0, "f_u11_exc_u18": 0.0}})
_NEVER_TO_U3 = _set_sim(branch_probs={"u2": {"f_u2_u3": 0.0, "f_u2_u4": 1.0}})


@pytest.mark.parametrize("edits, file, message", [
    # a flow into subProcess u12's task u15: taken by every instance, and by none
    ([("order.bpmn", _retarget("f_u9_u10", "u15"))], "order.bpmn",
     "sequence flow 'f_u9_u10' references element 'u15' of subProcess 'u12' "
     "across a subProcess boundary"),
    ([("order.bpmn", _retarget("f_u11_exc_u18", "u15")), ("sim.json", _NEVER_TO_U18)],
     "order.bpmn", "sequence flow 'f_u11_exc_u18' references element 'u15' of subProcess "
     "'u12' across a subProcess boundary"),
    # an endpoint profile sim.json does not define, on a branch taken and on one never taken
    ([("manifest.json", _set_u3_profile)], "sim.json", "missing duration profile 'nosuch'"),
    ([("manifest.json", _set_u3_profile), ("sim.json", _NEVER_TO_U3)], "sim.json",
     "missing duration profile 'nosuch'"),
    ([("sim.json", _set_sim(branch_probs={"zz": {"f_u2_u3": 1.0}}))], "sim.json",
     "field 'branch_probs.zz' names no exclusive gateway of process 'HandleOrder'"),
    # every duration 1e308: the second one drawn takes the clock past the largest float
    ([("sim.json", _set_sim(profiles={name: {"kind": "fixed", "value": 1e308}
                                      for name in ("fast", "medium", "slow")}))],
     "sim.json", "the clock overflows: the durations drawn add up past the largest float"),
], ids=["crossing-flow-taken", "crossing-flow-untaken", "missing-profile-taken",
        "missing-profile-untaken", "unknown-gateway", "clock-overflow"])
def test_run_checks_its_whole_input_before_the_first_event(work, capsys, edits, file, message):
    assert (_gen(work), _bind(work)) == (0, 0)
    for name, edit in edits:
        _edit(work / name, edit)
    capsys.readouterr()
    assert _run(work) == 1
    assert capsys.readouterr() == ("", f"error: {work / file}: {message}\n")
    assert not (work / "events.jsonl").exists()


def _set_duration(lines, n, text):
    lines[n] = lines[n][:lines[n].index('"duration_ms": ')] + f'"duration_ms": {text}}}\n'


@pytest.mark.parametrize("text, shown", [("1e999", "Infinity"), ("Infinity", "Infinity"),
                                         ("-Infinity", "-Infinity"),
                                         ("1" + "0" * 400, "too large for a float")],
                         ids=["canonical-overflow", "json-infinity", "json-minus-infinity",
                              "int-past-the-largest-float"])
def test_monitor_rejects_a_duration_that_is_not_finite(work, capsys, text, shown):
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if '"activityEnd"' in line)
    _set_duration(lines, n, text)
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {n + 1}: malformed record: 'duration_ms' is {shown}\n")
    assert not (work / "report.json").exists()


@pytest.mark.parametrize("text", ["-1e9", "-1", "-0.5"], ids=["float", "int", "fraction"])
def test_monitor_rejects_a_negative_duration(work, capsys, text):
    # no activity takes less than no time; the shares of a report with one
    # would be meaningless (a negative total zeroed every contribution_pct)
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if '"activityEnd"' in line)
    _set_duration(lines, n, text)
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {n + 1}: malformed record: 'duration_ms' is negative\n")
    assert not (work / "report.json").exists()


def _dated(line, ts):
    """``line`` with its ``ts_ms`` set to ``ts``."""
    start = line.index('"ts_ms": ') + len('"ts_ms": ')
    return line[:start] + ts + line[line.index(",", start):]


def test_monitor_rejects_a_process_end_before_its_start(work, capsys):
    # a negative instance duration would go into the process's mean_ms
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if '"processEnd"' in line)
    lines[n] = _dated(lines[n], "-1e12")
    log.write_text("".join(lines), encoding="utf-8")
    instance = json.loads(lines[n])["instance"]
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {n + 1}: processEnd of instance {instance} at ts_ms "
            "-1000000000000.0 precedes its start at ts_ms 0.0\n")
    assert not (work / "report.json").exists()


@pytest.mark.parametrize("kind, ts", [("processStart", "5000.0"), ("processEnd", "9000000.0")])
def test_monitor_rejects_a_second_start_or_end_of_an_instance(work, capsys, kind, ts):
    # kept, the second would silently replace the instance's duration in mean_ms
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(line for line in lines if f'"{kind}"' in line)
    lines.append(_dated(first, ts))
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {len(lines)}: second {kind} of instance "
            f"{json.loads(first)['instance']}\n")
    assert not (work / "report.json").exists()


def test_monitor_rejects_a_process_end_with_no_start(work, capsys):
    # its duration would be counted from a start the log never had
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.remove(next(line for line in lines
                      if '"processStart"' in line and '"instance": 1,' in line))
    log.write_text("".join(lines), encoding="utf-8")
    n = next(i for i, line in enumerate(lines)
             if '"processEnd"' in line and '"instance": 1,' in line)
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {n + 1}: processEnd of instance 1 has no processStart "
            "before it\n")
    assert not (work / "report.json").exists()


def test_monitor_rejects_durations_that_add_up_past_the_largest_float(work, capsys):
    # each duration is finite, and the line canonical; their sum is not finite
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines)
            if '"activityEnd"' in line and '"element_uid": "u4"' in line]
    for n in ends[:2]:
        _set_duration(lines, n, "1e+308")
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: durations add up past the largest float\n")
    assert not (work / "report.json").exists()


@pytest.mark.parametrize("kind, field", [("activityEnd", "duration_ms"), ("processEnd", "ts_ms")])
def test_monitor_rejects_a_nan_in_the_log(work, capsys, kind, field):
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    log = work / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if json.loads(line).get("kind") == kind)
    lines[n] = json.dumps({**json.loads(lines[n]), field: float("nan")}) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == (
        "", f"error: {log}: line {n + 1}: malformed record: {field!r} is NaN\n")


def test_run_refuses_no_instances(work, capsys):
    assert (_gen(work), _bind(work)) == (0, 0)
    capsys.readouterr()
    assert cli.main(["run", str(work / "order.bpmn"), "--manifest", str(work / "manifest.json"),
                     "--sim", str(work / "sim.json"), "--instances", "0",
                     "-o", str(work / "events.jsonl")]) == 1
    assert capsys.readouterr() == ("", "error: instance_count must be >= 1\n")
    assert not (work / "events.jsonl").exists()


def test_run_seed_overrides_the_seed_of_the_sim_file(work):
    assert (_gen(work), _bind(work)) == (0, 0)
    assert _run(work, seed=7, out="flag.jsonl") == 0
    sim = json.loads((work / "sim.json").read_text(encoding="utf-8"))
    assert sim["seed"] != 7
    (work / "sim.json").write_text(json.dumps(dict(sim, seed=7)), encoding="utf-8")
    assert _run(work, out="file.jsonl") == 0
    assert (work / "flag.jsonl").read_bytes() == (work / "file.jsonl").read_bytes()


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


def _modules_loaded_by(argv):
    """The exit code of ``cli.main(argv)`` in a fresh ``python -I -S`` process
    (no site-packages, no PYTHONPATH), and the modules loaded by then; an
    empty ``argv`` only imports the cli."""
    script = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import dsproc.cli; "
              "code = dsproc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
              "print(code, *sorted(sys.modules))")
    result = subprocess.run(
        [*_ISOLATED, "-c", script, _SRC,
         *argv], capture_output=True, encoding="utf-8")
    assert result.stderr == ""
    code, *modules = result.stdout.splitlines()[-1].split()
    return int(code), set(modules)


# no command may load these, and none loads a module of another command
_BANNED = {"dataclasses", "typing", "inspect", "pathlib"}
_NOT_RUN = {
    "check": {"dsproc.engine", "dsproc.bpmn", "xml.etree"},
    "gen": {"dsproc.engine", "dsproc.deploy", "dsproc.monitor", "xml.etree"},
    "bind": {"dsproc.engine", "dsproc.bpmn", "xml.etree"},
    "run": {"dsproc.domain", "dsproc.process", "dsproc.lexer", "dsproc.pivot"},
    "monitor": {"dsproc.engine", "random", "heapq", "xml.etree"},
}


def test_importing_the_cli_does_not_import_pathlib():
    code, modules = _modules_loaded_by([])
    assert code == 0
    assert not modules & _BANNED
    assert {m for m in modules if m.startswith("dsproc")} == {
        "dsproc", "dsproc.cli", "dsproc.diagnostics"}


@pytest.mark.parametrize("command", ["check", "gen", "sync", "bind", "run", "monitor"])
def test_each_command_loads_only_the_modules_it_runs(work, command):
    assert (_gen(work), _bind(work), _run(work)) == (0, 0, 0)
    dsml, dsproc = str(work / "order_handling.dsml"), str(work / "order_handling.dsproc")
    store = ["--domain", dsml, "--mappings", str(work / "mappings.json")]
    argv = {
        "check": ["check", dsml, dsproc],
        "gen": ["gen", dsproc, *store, "-o", str(work / "again.bpmn")],
        "sync": ["sync", dsproc, *store, "--edited", str(work / "order.bpmn"),
                 "-o", str(work / "merged.bpmn")],
        "bind": ["bind", *store, "--bindings", str(work / "bindings.json"),
                 "--process", "HandleOrder", "-o", str(work / "again.json")],
        "run": ["run", str(work / "order.bpmn"), "--manifest", str(work / "manifest.json"),
                "--sim", str(work / "sim.json"), "-o", str(work / "again.jsonl")],
        "monitor": ["monitor", str(work / "events.jsonl"), *store],
    }[command]
    code, modules = _modules_loaded_by(argv)
    assert code == 0
    assert not modules & (_BANNED | _NOT_RUN.get(command, set()))


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


_LIMIT = sys.get_int_max_str_digits()
# JSON that json.loads cannot hold: an integer past Python's digit limit for
# int(text), and nesting past the recursion limit
_HOSTILE = {
    "long-int": ("1" * (_LIMIT + 1), f"an integer has more than {_LIMIT} digits"),
    "deep": ("[" * 100_000, "arrays or objects nested too deeply"),
}


@pytest.mark.parametrize("case", _HOSTILE)
def test_hostile_json_in_the_log_is_a_located_error(work, capsys, case):
    value, reason = _HOSTILE[case]
    assert _gen(work) == 0
    log = work / "events.jsonl"
    log.write_text('{"log_version": 1, "seed": 0, "rng": "python-mt19937"}\n'
                   f'{{"seq": {value}, "ts_ms": 0.0, "kind": "processStart", '
                   '"process": "HandleOrder", "instance": 1}\n', encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["monitor", str(log), "--mappings", str(work / "mappings.json"),
                     "--domain", str(work / "order_handling.dsml")]) == 1
    assert capsys.readouterr() == ("", f"error: {log}: line 2: malformed record: {reason}\n")


@pytest.mark.parametrize("case", _HOSTILE)
def test_hostile_json_in_sim_is_a_located_error(work, capsys, case):
    value, reason = _HOSTILE[case]
    assert _gen(work) == 0
    assert _bind(work) == 0
    (work / "sim.json").write_text(f'{{"seed": {value}}}', encoding="utf-8")
    capsys.readouterr()
    assert _run(work) == 1
    assert capsys.readouterr() == ("", f"error: {work / 'sim.json'}: malformed JSON: {reason}\n")
    assert not (work / "events.jsonl").exists()


def test_run_names_a_malformed_bpmn_file(work, capsys):
    assert _gen(work) == 0
    assert _bind(work) == 0
    (work / "order.bpmn").write_text("<bad", encoding="utf-8")
    assert _run(work) == 1
    assert capsys.readouterr().err.startswith(f"error: {work / 'order.bpmn'}: malformed XML: ")


def _nested_bpmn(depth):
    """A process of ``depth`` nested subprocesses, ``p0`` outermost; each
    level runs from its start event through the next level to its end."""
    opening, closing = [], []
    for i in range(depth):
        opening.append(f'<bpmn:startEvent id="s{i}"/><bpmn:subProcess id="p{i}">')
        closing.append(f'</bpmn:subProcess><bpmn:endEvent id="e{i}"/>'
                       f'<bpmn:sequenceFlow id="a{i}" sourceRef="s{i}" targetRef="p{i}"/>'
                       f'<bpmn:sequenceFlow id="b{i}" sourceRef="p{i}" targetRef="e{i}"/>')
    return (f'<bpmn:definitions xmlns:bpmn="{bpmn.BPMN_NS}"><bpmn:process id="P">'
            + "".join(opening) + '<bpmn:startEvent id="s"/><bpmn:endEvent id="e"/>'
            '<bpmn:sequenceFlow id="f" sourceRef="s" targetRef="e"/>'
            + "".join(reversed(closing)) + "</bpmn:process></bpmn:definitions>\n")


def _run_nested(work, depth):
    (work / "deep.bpmn").write_text(_nested_bpmn(depth), encoding="utf-8")
    (work / "empty.json").write_text('{"process": "P", "activities": {}}', encoding="utf-8")
    return cli.main(["run", str(work / "deep.bpmn"), "--manifest", str(work / "empty.json"),
                     "--instances", "2", "-o", str(work / "events.jsonl")])


@pytest.mark.parametrize("command", ["run", "sync"])
def test_subprocesses_nested_too_deep_are_a_located_error(work, capsys, command):
    deep = work / "deep.bpmn"
    if command == "run":
        assert _run_nested(work, 3000) == 1
    else:
        deep.write_text(_nested_bpmn(3000), encoding="utf-8")
        assert _sync(work, deep) == 1
    assert capsys.readouterr() == (
        "", f"error: {deep}: subProcess 'p{MAX_NESTING}' is nested more than "
            f"{MAX_NESTING} levels deep\n")
    assert not (work / "events.jsonl").exists() and not (work / "merged.bpmn").exists()


def test_subprocesses_at_the_deepest_nesting_read_run(work):
    assert _run_nested(work, MAX_NESTING) == 0
    kinds = [json.loads(line)["kind"]
             for line in (work / "events.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    assert kinds == ["processStart", "processStart", "processEnd", "processEnd"]


def _chain(work, depth):
    """A domain whose concept ``C<depth>`` expands to ``depth`` nested
    subprocesses (``C<i>`` runs ``C<i-1>``, declared on line ``i + 3``; ``C0``
    is a leaf), and a process ``P`` that runs it; returns the two paths."""
    domain, process = work / "deep.dsml", work / "deep.dsproc"
    domain.write_text("\n".join(
        ["domain Deep {", '  service s { operation "work" }',
         '  concept C0 { label "C0" services [s] }']
        + [f'  concept C{i} {{ label "C{i}" subprocess {{ node n: concept C{i - 1} '
           "start -> n n -> end } }" for i in range(1, depth + 1)] + ["}\n"]), encoding="utf-8")
    process.write_text(f"process P uses Deep {{\n  node n: concept C{depth}\n  start -> n\n"
                       "  n -> end\n}\n", encoding="utf-8")
    (work / "deep.json").write_text(
        '{"bindings": {"s": {"endpoint": "sim://s", "profile": "fast"}}}', encoding="utf-8")
    return domain, process


def _gen_chain(work, domain, process):
    return cli.main(["gen", str(process), "--domain", str(domain),
                     "--mappings", str(work / "deep-mappings.json"), "-o", str(work / "deep.bpmn")])


def test_a_domain_at_the_deepest_nesting_checks_generates_and_runs(work, capsys):
    domain, process = _chain(work, MAX_NESTING)
    assert cli.main(["check", str(domain), str(process)]) == 0
    assert _gen_chain(work, domain, process) == 0
    assert cli.main(["bind", "--domain", str(domain), "--bindings", str(work / "deep.json"),
                     "--mappings", str(work / "deep-mappings.json"), "--process", "P",
                     "-o", str(work / "deep-manifest.json")]) == 0
    assert cli.main(["run", str(work / "deep.bpmn"), "--manifest",
                     str(work / "deep-manifest.json"), "--sim", str(work / "sim.json"),
                     "--instances", "2", "-o", str(work / "events.jsonl")]) == 0
    assert capsys.readouterr() == ("", "")
    records = [json.loads(line) for line
               in (work / "events.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    assert [r["concept"] for r in records if r["kind"] == "activityEnd"] == ["C0", "C0"]


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1500])
def test_a_domain_nested_too_deep_is_a_located_error(work, capsys, depth):
    domain, process = _chain(work, depth)
    message = (f"concept 'C{MAX_NESTING + 1}' expands to subprocesses nested more "
               f"than {MAX_NESTING} levels deep")
    line = MAX_NESTING + 4
    assert cli.main(["check", str(domain), str(process)]) == 1
    assert capsys.readouterr() == (f"{domain}: error at {line}: {message}\n", "")
    assert _gen_chain(work, domain, process) == 1
    assert capsys.readouterr() == ("", f"error: {domain}:{line}: {message}\n")
    assert not (work / "deep.bpmn").exists() and not (work / "deep-mappings.json").exists()


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
                     "--domain", str(work / "order_handling.dsml"),
                     "--report", str(work / "report.json")])


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


# ---------------------------------------------------------------------------
# one-element edits of the walkthrough's BPMN: each edited file runs, or
# `run` exits 1 with one line that names it

@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough generated and bound, with a sim.json of 20 instances."""
    work = tmp_path_factory.mktemp("walkthrough")
    for name in ("order_handling.dsml", "order_handling.dsproc", "bindings.json"):
        shutil.copy(FIXTURES / name, work / name)
    sim = json.loads((FIXTURES / "sim.json").read_text(encoding="utf-8"))
    (work / "sim.json").write_text(json.dumps({**sim, "instance_count": 20}), encoding="utf-8")
    assert (_gen(work), _bind(work)) == (0, 0)
    return work


def _flow_elements(root):
    """``{id: (parent, child)}`` of each element and sequence flow of the
    process, subprocesses' own included."""
    found = {}
    stack = [next(c for c in root if c.tag.endswith("}process"))]
    while stack:
        parent = stack.pop()
        for child in parent:
            if child.get("id") is not None:
                found[child.get("id")] = (parent, child)
                stack.append(child)
    return found


def _edited_bpmn(text, how, item, end=None, ref=None):
    """``text`` with flow element ``item`` dropped or duplicated, or with
    sequence flow ``item``'s ``end`` attribute retargeted to ``ref``."""
    import xml.etree.ElementTree as ET
    root = ET.fromstring(text)
    parent, child = _flow_elements(root)[item]
    if how == "retarget":
        child.set(end, ref)
    elif how == "drop":
        parent.remove(child)
    else:
        parent.insert(list(parent).index(child), ET.fromstring(ET.tostring(child)))
    return ET.tostring(root, encoding="unicode")


def _run_edited(work, edit):
    """Whether the walkthrough's BPMN with ``edit`` parses and simulates in
    process, and the exit code and stderr of `run` on it; the path of the file."""
    text = _edited_bpmn((work / "order.bpmn").read_text(encoding="utf-8"), *edit)
    path = work / "edited.bpmn"
    path.write_text(text, encoding="utf-8")
    try:
        manifest = deploy.load_manifest(work / "manifest.json")
        cfg = engine.SimulationConfig.from_json((work / "sim.json").read_text(encoding="utf-8"))
        engine.simulate(bpmn.parse_bpmn(text), manifest, cfg)
        runs = True
    except DsprocError:
        runs = False
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["run", str(path), "--manifest", str(work / "manifest.json"),
                         "--sim", str(work / "sim.json"), "-o", str(work / "edited.jsonl")])
    return runs, code, stderr.getvalue(), path


def _kinds_by_instance(log):
    """The kinds of the records of each instance of ``log``, in log order."""
    kinds = {}
    for line in log.read_text(encoding="utf-8").splitlines()[1:]:
        record = json.loads(line)
        kinds.setdefault(record["instance"], []).append(record["kind"])
    return kinds


# drop or duplicate the i-th element or flow, or retarget an end of the i-th
# flow to the j-th id, of an element, a flow or nothing; each index is taken
# modulo the number of choices
_bpmn_edits = st.one_of(
    st.tuples(st.sampled_from(["drop", "duplicate"]), st.integers(0, 63)),
    st.tuples(st.just("retarget"), st.integers(0, 63), st.sampled_from(["sourceRef", "targetRef"]),
              st.integers(0, 63)))


@settings(max_examples=150, deadline=None)
@given(_bpmn_edits)
def test_a_one_element_edit_of_the_bpmn_runs_or_is_a_located_error(walkthrough, edit):
    import xml.etree.ElementTree as ET
    root = ET.fromstring((walkthrough / "order.bpmn").read_text(encoding="utf-8"))
    items = _flow_elements(root)
    ids = list(items)
    how, i, *retarget = edit
    if how == "retarget":
        flows = [item for item, (_, child) in items.items() if child.tag.endswith("}sequenceFlow")]
        end, j = retarget
        edit = (how, flows[i % len(flows)], end, (ids + ["nosuch"])[j % (len(ids) + 1)])
    else:
        edit = (how, ids[i % len(ids)])
    runs, code, stderr, path = _run_edited(walkthrough, edit)
    if runs:
        assert (code, stderr) == (0, "")
        # each instance starts once and ends once, after all its other records
        for kinds in _kinds_by_instance(walkthrough / "edited.jsonl").values():
            assert kinds[0] == "processStart" and "processStart" not in kinds[1:]
            assert kinds[-1] == "processEnd" and "processEnd" not in kinds[:-1]
    else:
        assert code == 1
        assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("edit, message", [
    # a flow into subProcess u12's task u15 (this fuzz test's first target)
    (("retarget", "f_u9_u10", "targetRef", "u15"),
     "sequence flow 'f_u9_u10' references element 'u15' of subProcess 'u12' "
     "across a subProcess boundary"),
    (("retarget", "f_u2_u3", "targetRef", "f_u11_u11_exc"),
     "sequence flow 'f_u2_u3' references unknown element 'f_u11_u11_exc'"),
    (("drop", "f_u8_u9"), "HandleOrder: gateway 'u8' has no outgoing flow"),
    (("retarget", "f_u11_u11_exc", "targetRef", "u1"),
     "HandleOrder: element 'u1' is on a loop that no flow of nonzero probability leaves "
     "for an end event, a dead end or a fault"),
    # u9 forks a token to u10 and one round u3, u8 and u9 again, which ran for ever
    (("retarget", "f_u2_u3", "sourceRef", "u9"),
     "HandleOrder: element 'u9' sends a token down each of its flows, and the one to 'u3' "
     "never reaches an end event, a dead end or a fault"),
], ids=["crossing-flow", "flow-to-a-flow", "gateway-without-flow", "loop", "forking-loop"])
def test_an_edit_the_fuzz_test_found_is_a_located_error(walkthrough, edit, message):
    runs, code, stderr, path = _run_edited(walkthrough, edit)
    assert (runs, code, stderr) == (False, 1, f"error: {path}: {message}\n")


def test_two_tokens_in_one_subprocess_each_run_it(walkthrough):
    # the start event forks a token to web (u3) and one to route (u2), and
    # both reach subProcess u12; each runs it, and the instance ends once
    runs, code, stderr, _ = _run_edited(walkthrough, ("retarget", "f_u2_u3", "sourceRef", "u1"))
    assert (runs, code, stderr) == (True, 0, "")
    kinds = _kinds_by_instance(walkthrough / "edited.jsonl")
    assert sorted(kinds) == list(range(1, 21))
    assert all(k.count("processEnd") == 1 for k in kinds.values())
