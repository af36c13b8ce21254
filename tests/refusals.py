"""Every input the toolchain refuses, one row each, and an input at the
edge of a refusal that it accepts; tests/test_cli.py runs each row through
``cli.main`` in process and as a ``python -S -m dsproc.cli`` command.

A row is an edit of a copy of the README walkthrough's directory (its
sources, and the outputs of ``gen``, ``bind`` and ``run``), one command line
run in that directory, and what the command must give: its exit code, its
exact stderr and stdout, and the files it must not leave behind. An edit
returns the values, such as a line or an instance number, that the expected
texts are formatted with. A new refusal is a new row.
"""

import json
import sys
from collections import namedtuple

from dsproc.bpmn import BPMN_NS
from dsproc.diagnostics import MAX_NESTING

Row = namedtuple("Row", "id edit command code stderr stdout absent", defaults=("", "", ()))

_STORE = "--domain order_handling.dsml --mappings mappings.json"
GEN = f"gen order_handling.dsproc {_STORE} -o out.bpmn"
SYNC = f"sync order_handling.dsproc {_STORE} --edited edited.bpmn -o merged.bpmn"
BIND = f"bind {_STORE} --bindings bindings.json --process HandleOrder -o out.json"
RUN = "run order.bpmn --manifest manifest.json --sim sim.json -o out.jsonl"
MONITOR = f"monitor events.jsonl {_STORE}"
REPORT = MONITOR + " --report report.json"
_HEADER = '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}\n'


# ---------------------------------------------------------------------------
# edits of the walkthrough's directory

def _write(name, data):
    """An edit that writes ``data``, text or bytes, to file ``name``."""
    def edit(work):
        if isinstance(data, bytes):
            (work / name).write_bytes(data)
        else:
            (work / name).write_text(data, encoding="utf-8")
    return edit


def _edit(name, change, out=None):
    """An edit that writes ``change`` of the text of file ``name`` to ``out``
    (``name`` itself by default)."""
    def edit(work):
        _write(out or name, change((work / name).read_text(encoding="utf-8")))(work)
    return edit


def _replace(name, old, new):
    return _edit(name, lambda text: text.replace(old, new))


def _all(*edits):
    """The edits one after the other; the values of the last that gives any."""
    def edit(work):
        values = None
        for each in edits:
            values = each(work) or values
        return values
    return edit


def _set_sim(**fields):
    return _edit("sim.json", lambda text: json.dumps({**json.loads(text), **fields}))


def _set_json(name, change):
    """An edit of the JSON document of file ``name`` by ``change``."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return _edit(name, edit)


def _set_manifest(change):
    return _set_json("manifest.json", lambda doc: change(doc["activities"]["u3"]))


def flow_elements(root):
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


def edited_bpmn(text, how, item, end=None, ref=None):
    """``text`` with flow element ``item`` dropped or duplicated, or with
    sequence flow ``item``'s ``end`` attribute retargeted to ``ref``."""
    import xml.etree.ElementTree as ET
    root = ET.fromstring(text)
    parent, child = flow_elements(root)[item]
    if how == "retarget":
        child.set(end, ref)
    elif how == "drop":
        parent.remove(child)
    else:
        parent.insert(list(parent).index(child), ET.fromstring(ET.tostring(child)))
    return ET.tostring(root, encoding="unicode")


def _retarget(flow, target):
    return _edit("order.bpmn",
                 lambda text: edited_bpmn(text, "retarget", flow, "targetRef", target))


def nested_bpmn(depth):
    """A process of ``depth`` nested subprocesses, ``p0`` outermost; each
    level runs from its start event through the next level to its end."""
    opening, closing = [], []
    for i in range(depth):
        opening.append(f'<bpmn:startEvent id="s{i}"/><bpmn:subProcess id="p{i}">')
        closing.append(f'</bpmn:subProcess><bpmn:endEvent id="e{i}"/>'
                       f'<bpmn:sequenceFlow id="a{i}" sourceRef="s{i}" targetRef="p{i}"/>'
                       f'<bpmn:sequenceFlow id="b{i}" sourceRef="p{i}" targetRef="e{i}"/>')
    return (f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}"><bpmn:process id="P">'
            + "".join(opening) + '<bpmn:startEvent id="s"/><bpmn:endEvent id="e"/>'
            '<bpmn:sequenceFlow id="f" sourceRef="s" targetRef="e"/>'
            + "".join(reversed(closing)) + "</bpmn:process></bpmn:definitions>\n")


# an edit of the log: ``change(lines)`` edits its lines, each with its newline,
# in place, and gives the values of the expected texts
def _log(change):
    def edit(work):
        log = work / "events.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        values = change(lines)
        log.write_text("".join(lines), encoding="utf-8")
        return values
    return edit


def _first(lines, text):
    """The index of the first line of ``lines`` that holds ``text``."""
    return next(i for i, line in enumerate(lines) if text in line)


def _numbered(line, seq):
    """Record line ``line`` with its ``seq`` set to ``seq``."""
    return f'{{"seq": {seq}, ' + line[line.index(", ") + 2:]


def _dated(line, ts):
    """Record line ``line`` with its ``ts_ms`` set to ``ts``."""
    start = line.index('"ts_ms": ') + len('"ts_ms": ')
    return line[:start] + ts + line[line.index(",", start):]


def _set_duration(lines, n, text):
    lines[n] = lines[n][:lines[n].index('"duration_ms": ')] + f'"duration_ms": {text}}}\n'


def _duration(text):
    """The first activityEnd's duration set to ``text``."""
    def change(lines):
        n = _first(lines, '"activityEnd"')
        _set_duration(lines, n, text)
        return {"n": n + 1}
    return _log(change)


def _appended(text, ts=None):
    """A copy of the first line that holds ``text``, dated ``ts`` if given,
    appended with the seq of its position."""
    def change(lines):
        copy = lines[_first(lines, text)]
        lines.append(_numbered(_dated(copy, ts) if ts else copy, len(lines)))
        return {"n": len(lines), "instance": json.loads(copy)["instance"]}
    return _log(change)


def _without(drop):
    """The log without the records that ``drop``, renumbered."""
    def change(lines):
        lines[1:] = [_numbered(line, seq) for seq, line
                     in enumerate([line for line in lines[1:] if not drop(line)], 1)]
    return _log(change)


def _end_before_start(lines):
    n = _first(lines, '"processEnd"')
    lines[n] = _dated(lines[n], "-1e12")
    return {"n": n + 1, "instance": json.loads(lines[n])["instance"]}


def _line_of_instance_1(lines):
    return {"n": _first(lines, '"instance": 1,') + 1}


def _first_measured_of_instance_1(lines):
    n = next(i for i, line in enumerate(lines) if '"instance": 1,' in line
             and json.loads(line)["kind"] in ("activityEnd", "serviceInvoke"))
    return {"n": n + 1, "kind": json.loads(lines[n])["kind"]}


def _both_u4_ends_huge(lines):
    for n in [i for i, line in enumerate(lines)
              if '"activityEnd"' in line and '"element_uid": "u4"' in line][:2]:
        _set_duration(lines, n, "1e+308")


def _set_fields(texts, **fields):
    """The first line that holds each of ``texts``, with ``fields`` set; a
    field set to None is left out, as a log leaves out a field that does not
    apply."""
    def change(lines):
        n = next(i for i, line in enumerate(lines) if all(text in line for text in texts))
        doc = {**json.loads(lines[n]), **fields}
        lines[n] = json.dumps({k: v for k, v in doc.items() if v is not None}) + "\n"
        return {"n": n + 1, "instance": doc["instance"]}
    return _log(change)


def _set_call(uid, **fields):
    """The first serviceInvoke of ``uid`` with ``fields`` set."""
    return _set_fields(('"serviceInvoke"', f'"element_uid": "{uid}"'), **fields)


def _swap(lines):  # lines 10 and 11
    lines[9], lines[10] = lines[10], lines[9]


def _duplicate(lines):  # line 10
    lines.insert(10, lines[9])


def _splice(lines):  # the log's records again, without their header
    n = len(lines)
    lines += lines[1:]
    return {"n": n + 1, "k": n}


def _headless(lines):  # without the header and the first record
    del lines[:2]


def _log_of(record):
    return _write("events.jsonl", _HEADER + record + "\n")


_LIMIT = sys.get_int_max_str_digits()
# JSON that json.loads cannot hold: an integer past Python's digit limit for
# int(text), and nesting past the recursion limit
_HOSTILE = {
    "long-int": ("1" * (_LIMIT + 1), f"an integer has more than {_LIMIT} digits"),
    "deep": ("[" * 100_000, "arrays or objects nested too deeply"),
}
# four domain errors; the process has two unknown concepts, and each of its
# nodes is unreachable and has no outgoing flow
BAD_DOMAIN = """domain D {
  concept A { label "a" services [s1] }
  concept A { label "a" services [s2] sla fast }
}
"""
BAD_PROCESS = """process P uses D {
  start -> end
  node b: concept Zzz
  node c: concept Yyy
}
"""
_TOO_DEEP = f"subProcess 'p{MAX_NESTING}' is nested more than {MAX_NESTING} levels deep"
# u11_exc takes its exceptional flow to u18 with probability 0.0, and u2 its flow to u3
_NEVER_TO_U18 = _set_sim(branch_probs={"u11_exc": {"f_u11_exc_u12": 1.0, "f_u11_exc_u18": 0.0}})
_NEVER_TO_U3 = _set_sim(branch_probs={"u2": {"f_u2_u3": 0.0, "f_u2_u4": 1.0}})
_NO_U3_PROFILE = _set_manifest(lambda u3: u3["endpoints"][0].update(profile="nosuch"))
_CROSSING = ("sequence flow '{}' references element 'u15' of subProcess 'u12' "
             "across a subProcess boundary")
# a store that gen wrote for another domain, and one that maps a concept
# (ReviewComment, uid u10) the domain no longer declares
_OTHER_DOMAIN = _replace("mappings.json", '"domain": "OrderHandling"', '"domain": "Other"')
_FOREIGN_STORE = "error: mappings.json belongs to domain 'Other', not 'OrderHandling'\n"
_CONCEPT_RENAMED = _replace("order_handling.dsml", "concept ReviewComment {",
                            "concept ReviewNote {")
_UNDECLARED = ("error: mappings.json: uid u10 maps concept 'ReviewComment', which "
               "order_handling.dsml does not declare\n")
# a store that breaks one of its invariants: two node paths of one uid; an
# activity's uid (u11, ApproveOrder's node approve) that no node path has; and
# that uid mapped to an activity of another process than its node path's
_TWO_PATHS = _set_json("mappings.json",
                       lambda doc: doc["uids"].update({"HandleOrder/fulfill/pack": "u11"}))
_TWO_PATHS_ERROR = ("error: mappings.json: uid u11 is the uid of both HandleOrder/approve "
                    "and HandleOrder/fulfill/pack\n")
_PATHLESS = _set_json("mappings.json", lambda doc: doc["uids"].pop("HandleOrder/approve"))
_OTHER_PROCESS = _set_json("mappings.json", lambda doc: doc["am"]["u11"].update(process="Other"))
# three SLAs whose threshold does not fit their metric
_BAD_SLAS = """  sla FaultsInMs { max_fault_rate 1 ms severity info }
  sla FaultsAboveOne { max_fault_rate 2 ratio severity info }
  sla DurationInRatio { max_duration 1 ratio severity info }
"""
# a parallel split with no join, and a node of a concept the domain lacks
_UNBALANCED = """process P uses OrderHandling {
  node fork: parallel
  node a: concept Nope
  start -> fork
  fork -> a
  fork -> end
  a -> end
}
"""
# monitor's text report of a log with no record
_ZERO_REPORT = """domain: OrderHandling

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

"""
_RUN_EDITED = "run edited.bpmn --manifest manifest.json --sim sim.json -o edited.jsonl"
_NOT_UTF8 = "error: {}: not UTF-8 text: invalid start byte\n"
_BAD_JSON = ("malformed JSON: Expecting property name enclosed in double quotes: line 1 "
             "column 2 (char 1)")


def _run_fails(id, edit, message, file="sim.json", command=RUN):
    return Row(id, edit, command, 1, f"error: {file}: {message}\n", absent=("out.jsonl",))


def _monitor_fails(id, edit, message):
    return Row(id, edit, REPORT, 1, f"error: events.jsonl: {message}\n", absent=("report.json",))


def _edit_found_by_fuzzing(id, edit, message):
    return Row(f"test_an_edit_the_fuzz_test_found_is_a_located_error[{id}]",
               _edit("order.bpmn", lambda text: edited_bpmn(text, *edit), "edited.bpmn"),
               _RUN_EDITED, 1, f"error: edited.bpmn: {message}\n", absent=("edited.jsonl",))


ROWS = [
    # check and gen: the model sources
    Row("test_check_reports_domain_error",
        _write("bad.dsml", 'domain D { concept A { label "a" } }'), "check bad.dsml", 1,
        stdout="bad.dsml: error at 1: concept 'A' needs either services or a subprocess body\n"),
    Row("test_check_lists_every_diagnostic_of_the_domain_and_each_process",
        _all(_write("d.dsml", BAD_DOMAIN), _write("p.dsproc", BAD_PROCESS)),
        "check d.dsml p.dsproc", 1, stdout=(
            "d.dsml: error at 3: duplicate concept name 'A'\n"
            "d.dsml: error at 2: concept 'A' references undeclared service 's1'\n"
            "d.dsml: error at 3: concept 'A' references undeclared service 's2'\n"
            "d.dsml: error at 3: concept 'A' references undeclared SLA 'fast'\n"
            "p.dsproc: error at 3: unknown concept 'Zzz'\n"
            "p.dsproc: error at 4: unknown concept 'Yyy'\n"
            "p.dsproc: error at 3: node 'b' is unreachable from start\n"
            "p.dsproc: error at 4: node 'c' is unreachable from start\n"
            "p.dsproc: error at 3: node 'b' has no outgoing flow\n"
            "p.dsproc: error at 4: node 'c' has no outgoing flow\n")),
    Row("test_check_locates_a_duplicate_node_id_by_line_and_column",
        _write("dup.dsproc", "process HandleOrder uses OrderHandling {\n  node a: parallel\n"
                             "  node a: exclusive\n}\n"),
        "check order_handling.dsml dup.dsproc", 1,
        "error: dup.dsproc:3:8: duplicate node id 'a'\n"),
    Row("test_check_locates_a_services_clause_without_its_list",
        _replace("order_handling.dsml", "services [svcWebOrder]", "services x"),
        "check order_handling.dsml", 1,
        "error: order_handling.dsml:21:14: expected '[', found 'x'\n"),
    Row("test_check_reports_each_sla_threshold_that_does_not_fit_its_metric",
        _replace("order_handling.dsml", "\n\n  concept ReceiveWebOrder", "\n" + _BAD_SLAS
                 + "\n  concept ReceiveWebOrder"),
        "check order_handling.dsml", 1, stdout=(
            "order_handling.dsml: error at 18: SLA 'FaultsInMs': fault-rate threshold needs "
            "unit 'ratio'\n"
            "order_handling.dsml: error at 19: SLA 'FaultsAboveOne': fault-rate threshold "
            "must be <= 1\n"
            "order_handling.dsml: error at 20: SLA 'DurationInRatio': duration metric needs a "
            "time unit\n")),
    # ReviewComment and HandlePayment depend on it; the subprocess's node uses another
    Row("test_check_reports_each_reference_to_an_unknown_concept",
        _all(_replace("order_handling.dsml", "ReceiveMailOrder]", "ReceiveFaxOrder]"),
             _replace("order_handling.dsml", "concept PackageItems\n", "concept PackItems\n")),
        "check order_handling.dsml", 1, stdout=(
            "order_handling.dsml: error at 43: concept 'ReviewComment' depends on unknown "
            "concept 'ReceiveFaxOrder'\n"
            "order_handling.dsml: error at 52: concept 'HandlePayment' depends on unknown "
            "concept 'ReceiveFaxOrder'\n"
            "order_handling.dsml: error at 72: concept 'ProcessShippingCost' subprocess "
            "references unknown concept 'PackItems'\n")),
    *[Row(f"test_check_locates_a_malformed_statement[{id}]",
          _replace("order_handling.dsproc", old, new),
          "check order_handling.dsml order_handling.dsproc", 1,
          f"error: order_handling.dsproc:{where}: expected {what}\n")
      for id, old, new, where, what in [
          ("node-name", "node route: exclusive", 'node "x": exclusive', "3:8",
           "IDENT, found 'x'"),
          ("node-colon", "node route: exclusive", "node route exclusive", "3:14",
           "':', found 'exclusive'"),
          ("node-kind", "node route: exclusive", 'node route: "x"', "3:15", "IDENT, found 'x'"),
          ("flow-arrow", "web -> merge", "web merge", "18:7", "'->', found 'merge'")]],
    # a diagnostic of the whole body, such as this warning, has no line
    Row("test_check_lists_a_warning_without_a_line",
        _write("p.dsproc", _UNBALANCED), "check order_handling.dsml p.dsproc", 1, stdout=(
            "p.dsproc: error at 3: unknown concept 'Nope'\n"
            "p.dsproc: warning: unbalanced parallel gateways (1 splits, 0 joins)\n")),
    Row("test_input_that_is_not_utf8_is_named_without_traceback[check-domain]",
        _edit("order_handling.dsml", lambda text: text.replace(
            "domain OrderHandling {", "domain OrderHandling {\n  # Pr\xfcfung").encode("latin-1")),
        "check order_handling.dsml", 1, _NOT_UTF8.format("order_handling.dsml")),
    Row("test_missing_file_is_an_error_not_a_traceback", None,
        GEN.replace("order_handling.dsproc", "nope.dsproc"), 1,
        "error: [Errno 2] No such file or directory: 'nope.dsproc'\n", absent=("out.bpmn",)),
    Row("test_a_store_of_another_domain_is_refused[gen]", _OTHER_DOMAIN, GEN, 1, _FOREIGN_STORE,
        absent=("out.bpmn",)),
    Row("test_a_store_giving_one_uid_two_node_paths_is_refused[gen]", _TWO_PATHS, GEN, 1,
        _TWO_PATHS_ERROR, absent=("out.bpmn",)),
    Row("test_unwritable_output_exits_one_without_traceback[gen]", None,
        GEN.replace("out.bpmn", "nodir/out"), 1,
        "error: [Errno 2] No such file or directory: 'nodir/out'\n"),
    # sync: exit 2 for a mapping or a model node the edited file lost
    Row("test_sync_broken_mapping_exits_two",
        _edit("order.bpmn", lambda text: text.replace('<dsml:conceptRef uid="u3" ', "<skip "),
              "edited.bpmn"),
        SYNC, 2, "broken mapping: uid u3 was removed from the edited model\n"),
    Row("test_sync_reports_a_node_the_model_added_not_a_removed_one",
        # the edited file is the one gen wrote before the model gained `extra`
        _all(_replace("order_handling.dsproc", "  node fulfill",
                      "  node extra: concept RunOcr\n  node fulfill"),
             _replace("order_handling.dsproc", "  review -> approve",
                      "  review -> extra\n  extra -> approve")),
        SYNC.replace("edited.bpmn", "order.bpmn"), 2,
        "model addition: uid u19 (HandleOrder/extra) is missing from the edited model\n"),
    Row("test_input_that_is_not_utf8_is_named_without_traceback[sync-edited]",
        _edit("order.bpmn", lambda text: text.replace('encoding="UTF-8"', 'encoding="ISO-8859-1"')
              .replace('name="Receive Web Order"', 'name="Prüfung"').encode("iso-8859-1"),
              "edited.bpmn"),
        SYNC, 1, _NOT_UTF8.format("edited.bpmn")),
    Row("test_subprocesses_nested_too_deep_are_a_located_error[sync]",
        _write("deep.bpmn", nested_bpmn(3000)), SYNC.replace("edited.bpmn", "deep.bpmn"), 1,
        f"error: deep.bpmn: {_TOO_DEEP}\n", absent=("merged.bpmn",)),
    # bind: the bindings and the mapping store; bind and monitor read the store
    # as gen left it, which must be the domain's, map no concept it lacks and
    # keep its invariants
    *[Row(f"{name}[{id}]", edit, command, 1, stderr, absent=(out,))
      for name, edit, stderr in [
          ("test_a_store_of_another_domain_is_refused", _OTHER_DOMAIN, _FOREIGN_STORE),
          ("test_a_store_mapping_a_concept_the_domain_lacks_is_refused", _CONCEPT_RENAMED,
           _UNDECLARED),
          ("test_a_store_giving_one_uid_two_node_paths_is_refused", _TWO_PATHS,
           _TWO_PATHS_ERROR),
          ("test_a_store_mapping_a_uid_of_no_node_path_is_refused", _PATHLESS,
           "error: mappings.json: uid u11 maps concept 'ApproveOrder', but no node path "
           "has it\n"),
          ("test_a_store_mapping_a_node_of_another_process_is_refused", _OTHER_PROCESS,
           "error: mappings.json: uid u11 maps an activity of process 'Other', but is the "
           "uid of node path HandleOrder/approve\n")]
      for id, command, out in [("bind", BIND, "out.json"), ("monitor", REPORT, "report.json")]],
    Row("test_bind_unknown_process_fails", None, BIND.replace("HandleOrder", "Ghost"), 1,
        "error: unknown process 'Ghost'\n", absent=("out.json",)),
    *[Row(f"test_malformed_json_input_names_the_file[{name}]", _write(f"{name}.json", "{bad"),
          BIND, 1, f"error: {name}.json: {_BAD_JSON}\n", absent=("out.json",))
      for name in ("bindings", "mappings")],
    *[Row(f"test_wrongly_shaped_json_input_names_the_field[{id}]", _write("bindings.json", text),
          BIND, 1, f"error: bindings.json: {message}\n", absent=("out.json",))
      for id, text, message in [
          ("binding-without-endpoint", '{"bindings": {"X": {}}}',
           "missing field 'bindings.X.endpoint'"),
          ("bindings-array", "[]", "the document must be an object, found array")]],
    # run: the BPMN, the manifest and the simulation config
    *[_run_fails(f"test_run_rejects_probabilities_for_elements_that_do_not_exist[{id}]",
                 _set_sim(**{field: value}), message)
      for id, field, value, message in [
          ("unknown-activity", "fault_probs", {"nope": 1.0},
           "field 'fault_probs.nope' names no activity of process 'HandleOrder'"),
          ("gateway-as-activity", "fault_probs", {"u2": 1.0},
           "field 'fault_probs.u2' names no activity of process 'HandleOrder'"),
          ("gateway-by-node-name", "branch_probs", {"route": {"x": 1.0}},
           "field 'branch_probs.route' names no exclusive gateway of process 'HandleOrder'"),
          ("activity-as-gateway", "branch_probs", {"u3": {"f_u3_u8": 1.0}},
           "field 'branch_probs.u3' names no exclusive gateway of process 'HandleOrder'"),
          ("unknown-flow", "branch_probs", {"u2": {"f_u2_u3": 0.5, "f_u2_u4": 0.5, "zz": 0.0}},
           "branch probabilities for 'u2' name unknown flows: zz")]],
    # a probability outside [0, 1] (these two add up to 1), and a uniform
    # profile whose range is empty
    *[_run_fails(f"test_run_rejects_a_probability_or_range_it_cannot_draw_from[{id}]", edit,
                 message)
      for id, edit, message in [
          ("branch-probability", _set_sim(branch_probs={"u2": {"f_u2_u3": -0.5, "f_u2_u4": 1.5}}),
           "branch probability u2/f_u2_u3 out of [0, 1]"),
          ("fault-probability", _set_sim(fault_probs={"u3": 1.5}),
           "fault probability for 'u3' out of [0, 1]"),
          ("uniform-low-above-high", _replace("sim.json", '"low": 10, "high": 50',
                                              '"low": 50, "high": 10'),
           "uniform profile requires 0 <= low <= high")]],
    _run_fails("test_run_rejects_an_endpoint_it_cannot_time",
               _set_manifest(lambda u3: u3["endpoints"][0].pop("profile")),
               "endpoint has no duration profile and no default is set"),
    # an infinite duration made report.json hold Infinity and NaN, which JSON has not
    _run_fails("test_run_rejects_a_fixed_profile_of_infinite_value",
               _replace("sim.json", '"fast": {"kind": "uniform", "low": 10, "high": 50}',
                        '"fast": {"kind": "fixed", "value": 1e999}'),
               "fixed profile requires a finite value"),
    # run checks its whole input before the first event: a flow into subProcess
    # u12's task u15 or a missing profile, on a branch taken and on one never taken
    *[_run_fails(f"test_run_checks_its_whole_input_before_the_first_event[{id}]", edit, message,
                 file)
      for id, edit, file, message in [
          ("crossing-flow-taken", _retarget("f_u9_u10", "u15"), "order.bpmn",
           _CROSSING.format("f_u9_u10")),
          ("crossing-flow-untaken", _all(_retarget("f_u11_exc_u18", "u15"), _NEVER_TO_U18),
           "order.bpmn", _CROSSING.format("f_u11_exc_u18")),
          ("missing-profile-taken", _NO_U3_PROFILE, "sim.json",
           "missing duration profile 'nosuch'"),
          ("missing-profile-untaken", _all(_NO_U3_PROFILE, _NEVER_TO_U3), "sim.json",
           "missing duration profile 'nosuch'"),
          ("unknown-gateway", _set_sim(branch_probs={"zz": {"f_u2_u3": 1.0}}), "sim.json",
           "field 'branch_probs.zz' names no exclusive gateway of process 'HandleOrder'"),
          # every duration 1e308: the second one drawn takes the clock past the largest float
          ("clock-overflow", _set_sim(profiles={name: {"kind": "fixed", "value": 1e308}
                                                for name in ("fast", "medium", "slow")}),
           "sim.json", "the clock overflows: the durations drawn add up past the largest float"),
      ]],
    Row("test_run_refuses_no_instances", None, RUN.replace("-o", "--instances 0 -o"), 1,
        "error: instance_count must be >= 1\n", absent=("out.jsonl",)),
    _run_fails("test_run_names_a_malformed_bpmn_file", _write("order.bpmn", "<bad"),
               "malformed XML: unclosed token: line 1, column 0", "order.bpmn"),
    *[_run_fails(f"test_run_names_a_bpmn_file_without_its_process[{id}]",
                 _write("order.bpmn", f'<{root} xmlns="{BPMN_NS}"/>'), message, "order.bpmn")
      for id, root, message in [
          ("process-as-root", "process", "expected definitions root, found 'process'"),
          ("no-process", "definitions", "no process element found")]],
    _run_fails("test_subprocesses_nested_too_deep_are_a_located_error[run]",
               _all(_write("deep.bpmn", nested_bpmn(3000)),
                    _write("empty.json", '{"process": "P", "activities": {}}')),
               _TOO_DEEP, "deep.bpmn",
               "run deep.bpmn --manifest empty.json --instances 2 -o out.jsonl"),
    *[_run_fails(f"test_malformed_json_input_names_the_file[{name}]",
                 _write(f"{name}.json", "{bad"), _BAD_JSON, f"{name}.json")
      for name in ("manifest", "sim")],
    *[_run_fails(f"test_hostile_json_in_sim_is_a_located_error[{id}]",
                 _write("sim.json", f'{{"seed": {value}}}'), f"malformed JSON: {reason}")
      for id, (value, reason) in _HOSTILE.items()],
    *[_run_fails(f"test_wrongly_shaped_json_input_names_the_field[{id}]", edit, message, file)
      for id, edit, file, message in [
          ("string-seed", _write("sim.json", '{"seed": "x"}'), "sim.json",
           "field 'seed' must be an integer, found string"),
          ("number-profile", _write("sim.json", '{"profiles": {"p": 3}}'), "sim.json",
           "field 'profiles.p' must be an object, found number"),
          ("activity-without-concept", _set_manifest(lambda u3: u3.pop("concept")),
           "manifest.json", "missing field 'activities.u3.concept'"),
          ("number-service", _set_manifest(lambda u3: u3.update(services=[1])),
           "manifest.json", "field 'activities.u3.services[0]' must be a string, found number")]],
    Row("test_unwritable_output_exits_one_without_traceback[run]", None,
        RUN.replace("out.jsonl", "nodir/out"), 1,
        "error: [Errno 2] No such file or directory: 'nodir/out'\n"),
    *[_edit_found_by_fuzzing(id, edit, message) for id, edit, message in [
        # a flow into subProcess u12's task u15 (the fuzz test's first target)
        ("crossing-flow", ("retarget", "f_u9_u10", "targetRef", "u15"),
         _CROSSING.format("f_u9_u10")),
        ("flow-to-a-flow", ("retarget", "f_u2_u3", "targetRef", "f_u11_u11_exc"),
         "sequence flow 'f_u2_u3' references unknown element 'f_u11_u11_exc'"),
        ("gateway-without-flow", ("drop", "f_u8_u9"),
         "HandleOrder: gateway 'u8' has no outgoing flow"),
        ("loop", ("retarget", "f_u11_u11_exc", "targetRef", "u1"),
         "HandleOrder: element 'u1' is on a loop that no flow of nonzero probability leaves "
         "for an end event, a dead end or a fault"),
        # u9 forks a token to u10 and one round u3, u8 and u9 again, which ran for ever
        ("forking-loop", ("retarget", "f_u2_u3", "sourceRef", "u9"),
         "HandleOrder: element 'u9' sends a token down each of its flows, and the one to "
         "'u3' never reaches an end event, a dead end or a fault")]],
    # monitor: the log, whose durations and instances make the report
    *[_monitor_fails(f"test_monitor_rejects_a_duration_that_is_not_finite[{id}]", _duration(text),
                     f"line {{n}}: malformed record: 'duration_ms' is {shown}")
      for id, text, shown in [
          ("canonical-overflow", "1e999", "Infinity"), ("json-infinity", "Infinity", "Infinity"),
          ("json-minus-infinity", "-Infinity", "-Infinity"),
          ("int-past-the-largest-float", "1" + "0" * 400, "too large for a float")]],
    # no activity takes less than no time; the shares of a report with one
    # would be meaningless (a negative total zeroed every contribution_pct)
    *[_monitor_fails(f"test_monitor_rejects_a_negative_duration[{id}]", _duration(text),
                     "line {n}: malformed record: 'duration_ms' is negative")
      for id, text in [("float", "-1e9"), ("int", "-1"), ("fraction", "-0.5")]],
    *[_monitor_fails(f"test_monitor_rejects_a_nan_in_the_log[{kind}-{field}]",
                     _set_fields((f'"kind": "{kind}"',), **{field: float("nan")}),
                     f"line {{n}}: malformed record: {field!r} is NaN")
      for kind, field in [("activityEnd", "duration_ms"), ("processEnd", "ts_ms")]],
    # each duration is finite, and the line canonical; their sum is not finite
    _monitor_fails("test_monitor_rejects_durations_that_add_up_past_the_largest_float",
                   _log(_both_u4_ends_huge), "durations add up past the largest float"),
    # a negative instance duration would go into the process's mean_ms
    _monitor_fails("test_monitor_rejects_a_process_end_before_its_start", _log(_end_before_start),
                   "line {n}: processEnd of instance {instance} at ts_ms -1000000000000.0 "
                   "precedes its start at ts_ms 0.0"),
    # kept, the second would silently replace the instance's duration in mean_ms
    *[_monitor_fails(f"test_monitor_rejects_a_second_start_or_end_of_an_instance[{kind}-{ts}]",
                     _appended(f'"{kind}"', ts),
                     f"line {{n}}: second {kind} of instance {{instance}}")
      for kind, ts in [("processStart", "5000.0"), ("processEnd", "9000000.0")]],
    # its duration would be counted from a start the log never had; instance 1
    # keeps no other record, as its first measured one would be refused first
    _monitor_fails("test_monitor_rejects_a_process_end_with_no_start",
                   _all(_without(lambda line: '"instance": 1,' in line
                                 and '"processEnd"' not in line), _log(_line_of_instance_1)),
                   "line {n}: processEnd of instance 1 has no processStart before it"),
    # the records of instance 1 would be counted for its concepts, and not as an instance
    _monitor_fails("test_monitor_rejects_a_measured_record_of_an_unstarted_instance",
                   _all(_without(lambda line: '"instance": 1,' in line
                                 and '"kind": "process' in line),
                        _log(_first_measured_of_instance_1)),
                   "line {n}: {kind} of instance 1 has no processStart before it"),
    # a sample of an ended instance would count for its concept after the instance
    # did: a copy of ReviewComment's (u10) end in instance 67 made it 101 of 100
    _monitor_fails("test_monitor_rejects_a_record_after_its_process_end",
                   _appended('"activityEnd", "process": "HandleOrder", "instance": 67, '
                             '"element_uid": "u10"'),
                   "line {n}: activityEnd of instance {instance} after its processEnd"),
    # a call the report would drop: of a service that ApproveOrder (u11) does not
    # use, as logged by a run under a domain where it did, or by an unmapped uid
    *[_monitor_fails(f"test_monitor_rejects_a_call_of_no_mapped_concepts_service[{id}]", edit,
                     f"line {{n}}: serviceInvoke of {message}")
      for id, edit, message in [
          ("unused-service", _set_call("u11", service="svcReview"),
           "u11 calls svcReview, which concept 'ApproveOrder' does not use"),
          ("unmapped-uid", _set_call("u3", element_uid="u2"),
           "u2 calls svcWebOrder, but u2 is no mapped activity")]],
    # a record without a field that ingest counts: a missing duration counted
    # as 0.0 ms and a missing status as ok, and a call of no uid or no service
    # was named as a call of None
    *[_monitor_fails(f"test_monitor_rejects_a_record_without_a_field_it_counts[{kind}-{field}]",
                     _set_fields((f'"kind": "{kind}"',), **{field: None}),
                     f"line {{n}}: {kind} of instance {{instance}} has no {field}")
      for kind, field in [("activityEnd", "duration_ms"), ("activityEnd", "status"),
                          ("serviceInvoke", "element_uid"), ("serviceInvoke", "service"),
                          ("serviceInvoke", "duration_ms"), ("processEnd", "status")]],
    # a kind or a status outside the log's vocabulary: an activityEnd renamed
    # activityFinish was skipped, its sample lost, and a status of failed
    # counted as a success
    _monitor_fails("test_monitor_rejects_an_unknown_kind",
                   _set_fields(('"kind": "activityEnd"',), kind="activityFinish"),
                   "line {n}: malformed record: unknown kind 'activityFinish'"),
    _monitor_fails("test_monitor_rejects_an_unknown_status",
                   _set_fields(('"kind": "activityEnd"',), status="failed"),
                   "line {n}: malformed record: unknown status 'failed'"),
    # a record's seq is its position among the records since the last header
    *[_monitor_fails(f"test_monitor_rejects_a_seq_that_is_not_the_position[{id}]", _log(change),
                     message)
      for id, change, message in [
          ("swapped-pair", _swap, "line 10: seq 10, expected 9"),
          ("duplicated-line", _duplicate, "line 11: seq 9, expected 10"),
          ("spliced-log", _splice, "line {n}: seq 1, expected {k}")]],
    # no record of the log is read before its header (the first record here has seq 2)
    _monitor_fails("test_monitor_refuses_a_log_without_its_header",
                   _log(_headless), "line 1: log header missing"),
    # a file without a log header holds no log; a log of its header only is
    # a log of no instance, with a report of zeros
    *[_monitor_fails(f"test_monitor_refuses_a_file_that_holds_no_log[{id}]",
                     _write("events.jsonl", text), "log header missing")
      for id, text in [("empty", ""), ("blank-lines", "\n  \n\t\n")]],
    # only the int 1 is log version 1: true and 1.0 equal it in Python
    *[_monitor_fails(f"test_monitor_refuses_a_log_version_other_than_the_int_1[{id}]",
                     _replace("events.jsonl", '"log_version": 1,', f'"log_version": {text},'),
                     f"line 1: unsupported log version {text}")
      for id, text in [("true", "true"), ("float", "1.0")]],
    Row("test_monitor_reports_zeros_for_a_log_of_its_header_only",
        _write("events.jsonl", _HEADER), MONITOR, 0, stdout=_ZERO_REPORT),
    Row("test_monitor_rejects_foreign_log",
        _log_of('{"seq": 1, "ts_ms": 0, "kind": "processStart", "process": "Ghost", '
                '"instance": 1}'),
        MONITOR, 1, "error: events.jsonl: line 2: unknown process 'Ghost'\n"),
    *[Row(f"test_monitor_malformed_record_exits_one_without_traceback[{id}]", _log_of(record),
          MONITOR, 1, f"error: events.jsonl: line 2: malformed record: {reason}\n")
      for id, record, reason in [
          ("number", "5", "not a JSON object"), ("null", "null", "not a JSON object"),
          ("list-instance", '{"seq": 1, "ts_ms": 0, "kind": "processStart", '
           '"process": "HandleOrder", "instance": [1]}', "'instance' has the wrong type"),
          ("string-duration", '{"seq": 1, "ts_ms": 5, "kind": "activityEnd", '
           '"process": "HandleOrder", "instance": 1, "element_uid": "u3", "duration_ms": "7"}',
           "'duration_ms' has the wrong type")]],
    *[Row(f"test_hostile_json_in_the_log_is_a_located_error[{id}]",
          _log_of(f'{{"seq": {value}, "ts_ms": 0.0, "kind": "processStart", '
                  '"process": "HandleOrder", "instance": 1}'),
          MONITOR, 1, f"error: events.jsonl: line 2: malformed record: {reason}\n")
      for id, (value, reason) in _HOSTILE.items()],
    Row("test_input_that_is_not_utf8_is_named_without_traceback[monitor-log]",
        _write("events.jsonl", _HEADER.encode() + b'{"process": "Pr\xfcfung"}\n'), MONITOR, 1,
        _NOT_UTF8.format("events.jsonl")),
    Row("test_wrongly_shaped_json_input_names_the_field[am-entry-without-concept]",
        _write("mappings.json", '{"domain": "OrderHandling", "am": {"u1": {}}}'), REPORT, 1,
        "error: mappings.json: missing field 'am.u1.concept'\n", absent=("report.json",)),
]
