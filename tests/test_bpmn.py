import re
import xml.etree.ElementTree as ET

import pytest

from dsproc import bpmn, deploy, domain as dom, engine, mappings, pivot
from dsproc import process as proc
from dsproc.diagnostics import ParseError

from conftest import compile_pipeline


def _xml_root(xml):
    return ET.fromstring(xml)


def _local(tag):
    return tag.rsplit("}", 1)[-1]


def _by_id(model):
    return {e.id: e for e in bpmn.walk_elements(model)}


def test_service_task_per_leaf_concept(order_pipeline):
    leaves = [e for e in bpmn.walk_elements(order_pipeline.generated)
              if e.kind == "serviceTask"]
    # oracle: leaf concept references = concept nodes whose concept has no
    # subprocess body, plus all concept nodes inside one subprocess body
    d, model = order_pipeline.domain, order_pipeline.model
    expected = sum(1 for n in model.body.concept_refs()
                   if d.concept(n.concept).subprocess is None)
    for n in model.body.concept_refs():
        sub = d.concept(n.concept).subprocess
        if sub is not None:
            expected += sum(1 for inner in sub.nodes if inner.kind == "concept")
    assert len(leaves) == expected
    assert all(e.concept_uid for e in leaves)


def test_concept_ref_extension_attributes(order_pipeline):
    root = _xml_root(order_pipeline.xml)
    refs = root.findall(f".//{{{bpmn.DSML_NS}}}conceptRef")
    assert refs, "no conceptRef extensions emitted"
    for ref in refs:
        assert set(ref.attrib) == {"uid", "concept", "domain"}
        assert ref.get("domain") == "OrderHandling"
        assert order_pipeline.domain.concept(ref.get("concept")) is not None


def test_element_id_equals_uid(order_pipeline):
    for e in bpmn.walk_elements(order_pipeline.generated):
        if e.concept_uid is not None:
            assert e.id == e.concept_uid


def test_serialization_is_byte_deterministic(order_domain, order_process):
    a = compile_pipeline(order_domain, order_process)
    b = compile_pipeline(order_domain, order_process, store=a.store)
    assert a.xml == b.xml
    assert bpmn.serialize_bpmn(a.generated) == a.xml
    assert "\r" not in a.xml
    assert a.xml.endswith("\n")


def test_round_trip_preserves_structure(order_pipeline):
    parsed = bpmn.parse_bpmn(order_pipeline.xml)
    gen = {(e.id, e.kind, e.concept_uid)
           for e in bpmn.walk_elements(order_pipeline.generated)}
    back = {(e.id, e.kind, e.concept_uid) for e in bpmn.walk_elements(parsed)}
    assert back == gen
    # every level, its elements and its flows, in the same order
    assert parsed.levels == order_pipeline.generated.levels
    assert parsed.domain == "OrderHandling"


def test_subprocess_container_nests_inner_elements(order_pipeline):
    levels = order_pipeline.generated.levels
    subs = [e for e in levels[()][0] if e.kind == "subProcess"]
    assert len(subs) == 1
    sub = subs[0]
    assert sub.concept_name == "ProcessShippingCost"
    assert list(levels) == [(), (sub.id,)]
    inner_kinds = sorted(e.kind for e in levels[(sub.id,)][0])
    assert inner_kinds == ["endEvent", "serviceTask", "serviceTask",
                           "serviceTask", "startEvent"]


def _tiny_domain():
    return dom.parse_domain("""
        domain T {
          service s { operation "op" }
          concept A { label "a" services [s] }
          concept B { label "b" services [s] }
        }
    """)


def _compile(src, d=None):
    d = d or _tiny_domain()
    model = proc.parse_process(src, d)
    common = pivot.to_common(model, d, mappings.UidRegistry())
    return common, bpmn.generate_bpmn(common, d.name)


def test_exceptional_flow_inserts_routing_gateway():
    common, model = _compile("""process P uses T {
      node a: concept A
      node b: concept B
      start -> a
      a -> b
      a -> end exceptional
      b -> end
    }""")
    a_uid = next(e.uid for e in common.elements if e.concept == "A")
    gw = _by_id(model).get(f"{a_uid}_exc")
    assert gw is not None and gw.kind == "exclusiveGateway"
    assert gw.concept_uid is None
    # all of a's outgoing traffic is re-routed through the gateway
    flows = model.levels[()][1]
    from_a = [f for f in flows if f.source == a_uid]
    assert [f.target for f in from_a] == [gw.id]
    from_gw = {f.target: f.condition for f in flows if f.source == gw.id}
    end_uid = common.elements[-1].uid
    assert from_gw[end_uid] == "exception"
    b_uid = next(e.uid for e in common.elements if e.concept == "B")
    assert from_gw[b_uid] is None


def test_exceptional_flow_from_gateway_needs_no_insertion():
    common, model = _compile("""process P uses T {
      node a: concept A
      node g: exclusive
      start -> a
      a -> g
      g -> end when "ok"
      g -> end exceptional
    }""")
    assert not any(e.id.endswith("_exc") for e in bpmn.walk_elements(model))
    by_id = _by_id(model)
    conds = sorted(f.condition for f in model.levels[()][1]
                   if by_id[f.source].kind == "exclusiveGateway")
    assert conds == ["exception", "ok"]


def test_exceptional_gateways_follow_their_sources_at_every_level():
    d = dom.parse_domain("""
        domain T {
          service s { operation "op" }
          concept A { label "a" services [s] }
          concept B { label "b" services [s] }
          concept S { label "sub" subprocess {
            node x: concept A
            node y: concept B
            start -> x
            x -> y
            x -> end exceptional
            y -> end
          } }
        }
    """)
    # b's exceptional flow comes first, a has two, the gateway g needs no insertion
    _, model = _compile("""process P uses T {
      node a: concept A
      node b: concept B
      node sub: concept S
      node g: exclusive
      start -> a
      a -> b
      b -> sub
      b -> end exceptional
      sub -> g
      a -> end exceptional
      g -> end when "ok"
      g -> end exceptional
      a -> g exceptional
    }""", d)
    assert list(model.levels) == [(), ("u4",)]
    (elements, flows), (inner_elements, inner_flows) = model.levels.values()
    assert [e.id for e in elements] == [
        "u1", "u2", "u2_exc", "u3", "u3_exc", "u4", "u9", "u10"]
    assert [f.id for f in flows] == [
        "f_u3_u3_exc", "f_u2_u2_exc", "f_u1_u2", "f_u2_exc_u3", "f_u3_exc_u4",
        "f_u3_exc_u10", "f_u4_u9", "f_u2_exc_u10", "f_u9_u10", "f_u9_u10_2", "f_u2_exc_u9"]
    assert elements[5].kind == "subProcess"
    assert [e.id for e in inner_elements] == ["u5", "u6", "u6_exc", "u7", "u8"]
    assert [f.id for f in inner_flows] == [
        "f_u6_u6_exc", "f_u5_u6", "f_u6_exc_u7", "f_u6_exc_u8", "f_u7_u8"]


def test_duplicate_flow_ids_are_deduplicated():
    _, model = _compile("""process P uses T {
      node a: concept A
      node g: exclusive
      start -> a
      a -> g
      g -> end when "x"
      g -> end when "y"
    }""")
    ids = [f.id for f in model.levels[()][1]]
    assert len(ids) == len(set(ids))
    assert any(i.endswith("_2") for i in ids)


def test_generate_and_walk_take_any_depth_in_document_order():
    # a pivot model nested far past the recursion limit: level i runs s<i>,
    # subprocess p<i>, e<i>; the innermost level runs s, e
    depth = 1500
    el, flow = pivot.CommonElement, pivot.CommonFlow
    m = pivot.CommonModel("P", (el("s", "start"), el("e", "end")), (flow("s", "e"),))
    for i in reversed(range(depth)):
        m = pivot.CommonModel("P", (el(f"s{i}", "start"), el(f"p{i}", "subprocess", inner=m),
                                    el(f"e{i}", "end")),
                              (flow(f"s{i}", f"p{i}"), flow(f"p{i}", f"e{i}")))
    model = bpmn.generate_bpmn(m, "D")
    paths = list(model.levels)
    assert paths == [tuple(f"p{i}" for i in range(n)) for n in range(depth + 1)]
    assert [e.id for e in bpmn.walk_elements(model)] == (
        [x for i in range(depth) for x in (f"s{i}", f"p{i}")] + ["s", "e"]
        + [f"e{i}" for i in reversed(range(depth))])


def _simulate(model):
    return engine.simulate(model, deploy.DeploymentManifest(model.process_id),
                           engine.SimulationConfig())


def test_validate_reports_missing_start():
    model = bpmn.BpmnModel("P", {(): ([bpmn.BpmnElement("e1", "endEvent")], [])})
    with pytest.raises(engine.SimulationError, match="expected exactly one startEvent"):
        _simulate(model)


def test_validate_reports_gateway_without_outgoing():
    model = bpmn.BpmnModel("P", {(): ([
        bpmn.BpmnElement("s", "startEvent"),
        bpmn.BpmnElement("g", "exclusiveGateway"),
        bpmn.BpmnElement("e", "endEvent"),
    ], [bpmn.SequenceFlow("f1", "s", "g")])})
    with pytest.raises(engine.SimulationError, match="has no outgoing flow"):
        _simulate(model)


def test_parse_rejects_duplicate_ids():
    xml = f"""<?xml version="1.0"?>
    <definitions xmlns="{bpmn.BPMN_NS}">
      <process id="P">
        <startEvent id="x"/>
        <endEvent id="x"/>
      </process>
    </definitions>"""
    with pytest.raises(ParseError, match="duplicate"):
        bpmn.parse_bpmn(xml)


def test_parse_lists_every_duplicate_id_once_sorted():
    # "s" is declared three times, twice inside the subprocess; "e" is both an
    # element id and a flow id; "f1" is a flow id at both levels
    xml = f"""<?xml version="1.0"?>
    <definitions xmlns="{bpmn.BPMN_NS}">
      <process id="P">
        <startEvent id="s"/>
        <subProcess id="sp">
          <startEvent id="s"/>
          <task id="s"/>
          <sequenceFlow id="f1" sourceRef="s" targetRef="s"/>
        </subProcess>
        <endEvent id="e"/>
        <sequenceFlow id="f1" sourceRef="s" targetRef="sp"/>
        <sequenceFlow id="e" sourceRef="sp" targetRef="e"/>
      </process>
    </definitions>"""
    with pytest.raises(ParseError) as info:
        bpmn.parse_bpmn(xml)
    assert str(info.value) == "duplicate ids: e, f1, s"


def test_parse_counts_the_elements_inside_subprocesses_that_share_an_id():
    # both subProcesses are read, and their start events clash too
    xml = f"""<?xml version="1.0"?>
    <definitions xmlns="{bpmn.BPMN_NS}">
      <process id="P">
        <subProcess id="sp"><startEvent id="x"/></subProcess>
        <subProcess id="sp"><startEvent id="x"/><endEvent id="y"/></subProcess>
      </process>
    </definitions>"""
    with pytest.raises(ParseError) as info:
        bpmn.parse_bpmn(xml)
    assert str(info.value) == "duplicate ids: sp, x"


def test_parse_rejects_dangling_flow_reference():
    xml = f"""<?xml version="1.0"?>
    <definitions xmlns="{bpmn.BPMN_NS}">
      <process id="P">
        <startEvent id="s"/>
        <sequenceFlow id="f" sourceRef="s" targetRef="ghost"/>
      </process>
    </definitions>"""
    with pytest.raises(ParseError, match="ghost"):
        bpmn.parse_bpmn(xml)


@pytest.mark.parametrize("source, target, message", [
    ("s", "t", "sequence flow 'f' references element 't' of subProcess 'sp' "
               "across a subProcess boundary"),
    ("t", "e", "sequence flow 'f' references element 't' of subProcess 'sp' "
               "across a subProcess boundary"),
    ("s", "g", "sequence flow 'f' references unknown element 'g'"),
], ids=["into-a-subprocess", "out-of-a-subprocess", "to-a-flow"])
def test_parse_rejects_a_flow_to_an_element_of_another_level(source, target, message):
    # a sequence flow does not cross a subProcess boundary (OMG BPMN 2.0, formal/11-01-03)
    xml = f"""<?xml version="1.0"?>
    <definitions xmlns="{bpmn.BPMN_NS}">
      <process id="P">
        <startEvent id="s"/>
        <subProcess id="sp">
          <startEvent id="ss"/>
          <task id="t"/>
          <sequenceFlow id="g" sourceRef="ss" targetRef="t"/>
        </subProcess>
        <endEvent id="e"/>
        <sequenceFlow id="f" sourceRef="{source}" targetRef="{target}"/>
      </process>
    </definitions>"""
    with pytest.raises(ParseError) as info:
        bpmn.parse_bpmn(xml)
    assert str(info.value) == message


def test_technical_enrichment_survives_parse(order_pipeline):
    enriched = order_pipeline.xml.replace(
        "</bpmn:process>",
        '  <bpmn:task id="A9" name="audit hook"/>\n  </bpmn:process>')
    parsed = bpmn.parse_bpmn(enriched)
    added = _by_id(parsed).get("A9")
    assert added is not None
    assert added.kind == "task"
    assert added.concept_uid is None


def test_name_attributes_carry_concept_labels(order_pipeline):
    root = _xml_root(order_pipeline.xml)
    names = {el.get("id"): el.get("name")
             for el in root.iter() if _local(el.tag) == "serviceTask"}
    d = order_pipeline.domain
    for uid, entry in order_pipeline.am.items():
        assert names[uid] == d.concept(entry.concept).label
