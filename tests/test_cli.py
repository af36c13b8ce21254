import contextlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from dsproc import bpmn, cli, deploy, engine, eventlog, mappings
from dsproc.diagnostics import MAX_NESTING, DsprocError

from conftest import FIXTURES, WALKTHROUGH, copy_walkthrough
from refusals import BAD_DOMAIN, BAD_PROCESS, ROWS, edited_bpmn, flow_elements, nested_bpmn


# a fresh interpreter without site-packages or PYTHONPATH; -I ignores
# PYTHONDONTWRITEBYTECODE, so -B keeps it from writing bytecode into src
_ISOLATED = (sys.executable, "-B", "-I", "-S")
_SRC = str(FIXTURES.resolve().parent.parent / "src")


@pytest.fixture
def work(tmp_path):
    """A directory with the walkthrough's sources."""
    return copy_walkthrough(tmp_path)


@pytest.fixture
def walked(walkthrough, tmp_path):
    """A copy of the walkthrough's directory, with what its gen, bind and run wrote."""
    return copy_walkthrough(tmp_path, WALKTHROUGH, walkthrough)


def _gen(work, out="order.bpmn", mappings="mappings.json", process="order_handling.dsproc"):
    return cli.main([
        "gen", str(work / process),
        "--domain", str(work / "order_handling.dsml"),
        "--mappings", str(work / mappings),
        "-o", str(work / out),
    ])


def test_check_clean_fixtures(work, capsys):
    code = cli.main(["check", str(work / "order_handling.dsml"),
                     str(work / "order_handling.dsproc")])
    assert code == 0
    assert "error" not in capsys.readouterr().out


def test_gen_stops_at_the_first_error_and_locates_it(work, capsys):
    bad_domain, bad_process = work / "d.dsml", work / "p.dsproc"
    bad_domain.write_text(BAD_DOMAIN, encoding="utf-8")
    bad_process.write_text(BAD_PROCESS.replace("uses D", "uses OrderHandling"),
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
    assert set(store) == {"am", "domain", "uids"}


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


def _gen_empty(work):
    """``gen`` of Empty, a process of the walkthrough's domain with no activity."""
    (work / "empty.dsproc").write_text("process Empty uses OrderHandling { start -> end }\n",
                                       encoding="utf-8")
    return _gen(work, out="empty.bpmn", process="empty.dsproc")


def _run_empty(work):
    """Empty bound and run for 3 instances into ``events.jsonl``."""
    assert _bind(work, process="Empty") == 0
    return cli.main(["run", str(work / "empty.bpmn"), "--manifest", str(work / "manifest.json"),
                     "--sim", str(work / "sim.json"), "--instances", "3",
                     "-o", str(work / "events.jsonl")])


_EMPTY_STDOUT = """\
domain: OrderHandling

concept                    count  faults      mean_ms  contrib%
---------------------------------------------------------------
ApproveOrder                   0       0            -      0.00
DetermineLanguage              0       0            -      0.00
HandlePayment                  0       0            -      0.00
PackageItems                   0       0            -      0.00
ReceiveMailOrder               0       0            -      0.00
ReceiveWebOrder                0       0            -      0.00
ReviewComment                  0       0            -      0.00
RunOcr                         0       0            -      0.00
ScanDocument                   0       0            -      0.00
SegmentDocument                0       0            -      0.00
ShipAndConfirm                 0       0            -      0.00

process Empty: instances=3 faults=0 mean_ms=0.0 technical_contrib%=0.00
"""


def test_a_process_of_the_store_with_no_mapped_activity_binds_runs_and_is_monitored(work,
                                                                                   capsys):
    # the store holds HandleOrder and Empty, which maps no activity: bind, run and
    # monitor all take Empty as one of the store's processes, and bind no other name
    assert (_gen(work), _gen_empty(work)) == (0, 0)
    assert _run_empty(work) == 0
    assert (work / "manifest.json").read_text(encoding="utf-8") == \
        '{\n  "activities": {},\n  "process": "Empty"\n}\n'
    capsys.readouterr()
    assert _monitor(work) == 0
    assert capsys.readouterr() == (_EMPTY_STDOUT, "")
    assert _bind(work, process="Ghost") == 1
    assert capsys.readouterr() == ("", "error: unknown process 'Ghost'\n")


def test_monitor_refuses_a_log_of_a_process_the_store_does_not_hold(work, capsys):
    # the store holds Empty only; its log with the process renamed is no log of the store
    assert _gen_empty(work) == 0
    assert _run_empty(work) == 0
    log = work / "events.jsonl"
    log.write_text(log.read_text(encoding="utf-8").replace('"Empty"', '"Ghost"'),
                   encoding="utf-8")
    capsys.readouterr()
    assert _monitor(work) == 1
    assert capsys.readouterr() == ("", f"error: {log}: line 2: unknown process 'Ghost'\n")
    assert not (work / "report.json").exists()
    assert _bind(work, process="Ghost") == 1
    assert capsys.readouterr() == ("", "error: unknown process 'Ghost'\n")


def _run(work, out="events.jsonl", sim="sim.json"):
    return cli.main(["run", str(work / "order.bpmn"),
                     "--manifest", str(work / "manifest.json"),
                     "--sim", str(work / sim),
                     "-o", str(work / out)])


def _sim_with_seed(work, seed):
    """A copy of the walkthrough's sim.json with ``seed``; its file name."""
    sim = json.loads((work / "sim.json").read_text(encoding="utf-8"))
    assert sim["seed"] != seed
    name = f"sim{seed}.json"
    (work / name).write_text(json.dumps(dict(sim, seed=seed)), encoding="utf-8")
    return name


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


def test_monitor_reads_every_record_of_the_walkthrough_log_by_the_pattern(walked, monkeypatch,
                                                                        capsys):
    # the json route may decode the header only; a record line sent there
    # fails the test, so a reader that fell back to it for every line would
    work = walked
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


def test_run_takes_its_seed_from_the_sim_file(work):
    assert (_gen(work), _bind(work)) == (0, 0)
    logs = {}
    for sim in ["sim.json", _sim_with_seed(work, 7)]:
        assert _run(work, out=f"{sim}.jsonl", sim=sim) == 0
        logs[sim] = (work / f"{sim}.jsonl").read_text(encoding="utf-8")
        header = json.loads(logs[sim].splitlines()[0])
        assert header["seed"] == json.loads((work / sim).read_text(encoding="utf-8"))["seed"]
    assert logs["sim.json"] != logs["sim7.json"]


def test_full_pipeline_and_determinism(work):
    assert _gen(work) == 0
    assert _bind(work) == 0
    assert _run(work, out="a.jsonl") == 0
    assert _run(work, out="b.jsonl") == 0
    assert (work / "a.jsonl").read_bytes() == (work / "b.jsonl").read_bytes()
    assert _run(work, out="c.jsonl", sim=_sim_with_seed(work, 99)) == 0
    assert (work / "a.jsonl").read_bytes() != (work / "c.jsonl").read_bytes()
    header = json.loads((work / "a.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["log_version"] == 1


def test_monitor_writes_report_and_alerts(walked, capsys):
    work = walked
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


def test_monitor_reads_each_concepts_services_from_the_domain_as_bind_does(work):
    # a service given to a concept after gen: bind binds it, run calls it, and
    # the report counts every call, with no gen in between
    assert _gen(work) == 0
    domain = work / "order_handling.dsml"
    domain.write_text(domain.read_text(encoding="utf-8").replace(
        "services [svcApprove]", "services [svcApprove, svcReview]"), encoding="utf-8")
    assert cli.main(["check", str(domain), str(work / "order_handling.dsproc")]) == 0
    assert (_bind(work), _run(work), _monitor(work)) == (0, 0, 0)
    records = [json.loads(line) for line in
               (work / "events.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    calls = sum(1 for r in records if r["kind"] == "serviceInvoke"
                and r["concept"] == "ApproveOrder" and r["service"] == "svcReview")
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    assert report["concepts"]["ApproveOrder"]["services"]["svcReview"]["count"] == calls == 100


def test_module_entry_point(work):
    # dsproc from this checkout, whether or not it is installed
    result = subprocess.run(
        [sys.executable, "-m", "dsproc.cli", "check",
         str(work / "order_handling.dsml")],
        capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": _SRC})
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


def test_importing_the_package_loads_none_of_its_modules():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
              "import dsproc; print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([*_ISOLATED, "-c", script, _SRC], capture_output=True,
                            encoding="utf-8")
    assert (result.stderr, result.stdout) == ("", "dsproc\n")


@pytest.mark.parametrize("command", ["check", "gen", "sync", "bind", "run", "monitor"])
def test_each_command_loads_only_the_modules_it_runs(walked, command):
    work = walked
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


def _run_nested(work, depth):
    (work / "deep.bpmn").write_text(nested_bpmn(depth), encoding="utf-8")
    (work / "empty.json").write_text('{"process": "P", "activities": {}}', encoding="utf-8")
    return cli.main(["run", str(work / "deep.bpmn"), "--manifest", str(work / "empty.json"),
                     "--instances", "2", "-o", str(work / "events.jsonl")])


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


def _monitor(work):
    return cli.main(["monitor", str(work / "events.jsonl"),
                     "--mappings", str(work / "mappings.json"),
                     "--domain", str(work / "order_handling.dsml"),
                     "--report", str(work / "report.json")])


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
# the refusal table of tests/refusals.py, each row on a copy of the walkthrough

def _edited_copy(row, walkthrough, work):
    """``row``'s edit of a copy of the walkthrough in ``work``; the exit code,
    stdout and stderr that ``row`` expects of its command there."""
    copy_walkthrough(work, WALKTHROUGH, walkthrough)
    values = (row.edit(work) if row.edit else None) or {}
    return row.code, row.stdout.format(**values), row.stderr.format(**values)


def _left(row, work):
    return [name for name in row.absent if (work / name).exists()]


@pytest.fixture
def in_process(walkthrough, tmp_path, monkeypatch, capsys):
    """A check of a row through cli.main, in an edited copy of the walkthrough."""
    def check(row):
        expected = _edited_copy(row, walkthrough, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert (cli.main(row.command.split()), *capsys.readouterr()) == expected
        assert _left(row, tmp_path) == []
    return check


def _in_process_test(name, rows):
    """The test ``name``, of the rows whose ids are ``name`` or ``name[...]``."""
    if [row.id for row in rows] == [name]:
        def test(in_process):
            in_process(rows[0])
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id[len(name) + 1:-1] for row in rows])
    def test(in_process, row):
        in_process(row)
    return test


# a row's id is the test it was before the table; each row runs in process
# under that id, and as a command under its own
for _name in dict.fromkeys(row.id.partition("[")[0] for row in ROWS):
    globals()[_name] = _in_process_test(
        _name, [row for row in ROWS if row.id.partition("[")[0] == _name])


@pytest.fixture(scope="module")
def as_commands(walkthrough, tmp_path_factory):
    """For each row, by id: what its command must give, what it gave as a
    ``python -S -m dsproc.cli`` command, and the files it left that it must
    not. The commands run two at a time, each for at most 60 s."""
    # one bytecode cache for all the commands, outside src: without it, each
    # would compile dsproc's sources again where no bytecode is written
    env = {**os.environ, "PYTHONPATH": _SRC,
           "PYTHONPYCACHEPREFIX": str(tmp_path_factory.mktemp("pycache"))}
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(row, work):
        expected = _edited_copy(row, walkthrough, work)
        result = subprocess.run([sys.executable, "-S", "-m", "dsproc.cli", *row.command.split()],
                                cwd=work, env=env, capture_output=True, encoding="utf-8",
                                timeout=60)
        return expected, (result.returncode, result.stdout, result.stderr), _left(row, work)
    works = [tmp_path_factory.mktemp("row") for _ in ROWS]
    with ThreadPoolExecutor(2) as pool:
        return dict(zip([row.id for row in ROWS], pool.map(run, ROWS, works)))


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refusal_as_a_command(as_commands, row):
    expected, result, left = as_commands[row.id]
    assert "Traceback" not in result[2]
    assert result == expected
    assert left == []


# ---------------------------------------------------------------------------
# one-element edits of the walkthrough's BPMN: each edited file runs, or
# `run` exits 1 with one line that names it

def _run_edited(walkthrough, edit, out):
    """Whether the walkthrough's BPMN with ``edit`` parses and simulates 20
    instances in process, and the exit code and stderr of `run` on it; the
    path of the file. The file and its log ``edited.jsonl`` are written to
    directory ``out``."""
    text = edited_bpmn((walkthrough / "order.bpmn").read_text(encoding="utf-8"), *edit)
    path = out / "edited.bpmn"
    path.write_text(text, encoding="utf-8")
    manifest, sim = walkthrough / "manifest.json", walkthrough / "sim.json"
    try:
        cfg = engine.SimulationConfig.from_json(sim.read_text(encoding="utf-8"))
        engine.simulate(bpmn.parse_bpmn(text), deploy.load_manifest(manifest),
                        cfg._replace(instance_count=20))
        runs = True
    except DsprocError:
        runs = False
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["run", str(path), "--manifest", str(manifest), "--sim", str(sim),
                         "--instances", "20", "-o", str(out / "edited.jsonl")])
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


@pytest.fixture(scope="module")
def edits(tmp_path_factory):
    """A directory for the edited BPMN files and their logs."""
    return tmp_path_factory.mktemp("edits")


@settings(max_examples=150, deadline=None)
@given(_bpmn_edits)
def test_a_one_element_edit_of_the_bpmn_runs_or_is_a_located_error(walkthrough, edits, edit):
    import xml.etree.ElementTree as ET
    root = ET.fromstring((walkthrough / "order.bpmn").read_text(encoding="utf-8"))
    items = flow_elements(root)
    ids = list(items)
    how, i, *retarget = edit
    if how == "retarget":
        flows = [item for item, (_, child) in items.items() if child.tag.endswith("}sequenceFlow")]
        end, j = retarget
        edit = (how, flows[i % len(flows)], end, (ids + ["nosuch"])[j % (len(ids) + 1)])
    else:
        edit = (how, ids[i % len(ids)])
    runs, code, stderr, path = _run_edited(walkthrough, edit, edits)
    if runs:
        assert (code, stderr) == (0, "")
        # each instance starts once and ends once, after all its other records
        for kinds in _kinds_by_instance(edits / "edited.jsonl").values():
            assert kinds[0] == "processStart" and "processStart" not in kinds[1:]
            assert kinds[-1] == "processEnd" and "processEnd" not in kinds[:-1]
    else:
        assert code == 1
        assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1


def test_two_tokens_in_one_subprocess_each_run_it(walkthrough, tmp_path):
    # the start event forks a token to web (u3) and one to route (u2), and
    # both reach subProcess u12; each runs it, and the instance ends once
    runs, code, stderr, _ = _run_edited(walkthrough, ("retarget", "f_u2_u3", "sourceRef", "u1"),
                                        tmp_path)
    assert (runs, code, stderr) == (True, 0, "")
    kinds = _kinds_by_instance(tmp_path / "edited.jsonl")
    assert sorted(kinds) == list(range(1, 21))
    assert all(k.count("processEnd") == 1 for k in kinds.values())
