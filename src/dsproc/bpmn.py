"""BPMN 2.0 generation, serialization and parsing.

Output uses only the descriptive element subset (start/end events, tasks,
service tasks, subprocesses, exclusive/parallel gateways, sequence flows).
Concept-derived elements carry their traceability uid in an
``extensionElements`` block::

    <bpmn:extensionElements>
      <dsml:conceptRef uid="u3" concept="ApproveOrder" domain="OrderHandling"/>
    </bpmn:extensionElements>

Serialization is byte-deterministic: UTF-8, LF line endings, two-space
indentation, fixed attribute order. Exceptional pivot flows are lowered to
an inserted exclusive gateway whose exceptional branch carries the
condition label ``exception``; the inserted gateway has no concept uid.
"""

from __future__ import annotations

from .diagnostics import ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterator

    from .pivot import CommonModel

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
DSML_NS = "urn:dsml:1"
# the deepest subProcess nesting parse_bpmn reads; each walk of a model's
# levels recurses once per level
MAX_NESTING = 100

_KIND_FROM_COMMON = {
    "start": "startEvent",
    "end": "endEvent",
    "activity": "serviceTask",
    "subprocess": "subProcess",
    "exclusive": "exclusiveGateway",
    "parallel": "parallelGateway",
}


class SequenceFlow:
    __slots__ = ("id", "source", "target", "condition")

    def __init__(self, id: str, source: str, target: str, condition: str | None = None):
        self.id = id
        self.source = source
        self.target = target
        self.condition = condition


class BpmnElement:
    """A flow element; a subprocess holds its own elements and flows."""

    __slots__ = ("id", "kind", "name", "concept_uid", "concept_name",
                 "inner_elements", "inner_flows")

    def __init__(self, id: str, kind: str, name: str = "", concept_uid: str | None = None,
                 concept_name: str | None = None,
                 inner_elements: list[BpmnElement] | None = None,
                 inner_flows: list[SequenceFlow] | None = None):
        self.id = id
        self.kind = kind
        self.name = name
        self.concept_uid = concept_uid
        self.concept_name = concept_name
        self.inner_elements = [] if inner_elements is None else inner_elements
        self.inner_flows = [] if inner_flows is None else inner_flows


class BpmnModel:
    __slots__ = ("process_id", "elements", "flows", "domain")

    def __init__(self, process_id: str, elements: list[BpmnElement] | None = None,
                 flows: list[SequenceFlow] | None = None, domain: str | None = None):
        self.process_id = process_id
        self.elements = [] if elements is None else elements
        self.flows = [] if flows is None else flows
        self.domain = domain


def walk_elements(model: BpmnModel) -> Iterator[BpmnElement]:
    """All elements of a model, each subprocess followed by its own."""
    def walk(elements: list[BpmnElement]) -> Iterator[BpmnElement]:
        for e in elements:
            yield e
            if e.inner_elements:
                yield from walk(e.inner_elements)
    return walk(model.elements)


def generate_bpmn(m: CommonModel, domain_name: str) -> BpmnModel:
    """Deterministically lower a pivot model to BPMN."""
    elements, flows = _lower_level(m, domain_name)
    return BpmnModel(process_id=_ncname(m.name), elements=elements,
                     flows=flows, domain=domain_name)


def _lower_level(m: CommonModel, domain_name: str
                 ) -> tuple[list[BpmnElement], list[SequenceFlow]]:
    # exceptional-flow lowering: each non-gateway source of an exceptional
    # flow gets one routing gateway, emitted straight after the source
    kind_of = {ce.uid: ce.kind for ce in m.elements}
    inserted: dict[str, str] = {}
    for f in m.flows:
        if f.exceptional and kind_of[f.source] != "exclusive" and f.source not in inserted:
            inserted[f.source] = f"{f.source}_exc"

    elements: list[BpmnElement] = []
    for ce in m.elements:
        kind = _KIND_FROM_COMMON[ce.kind]
        el = BpmnElement(id=ce.uid, kind=kind, name=ce.label)
        concept = m.concept_tags.get(ce.uid)
        if concept is not None:
            el.concept_uid = ce.uid
            el.concept_name = concept
        if ce.kind == "subprocess" and ce.inner is not None:
            el.inner_elements, el.inner_flows = _lower_level(ce.inner, domain_name)
        elements.append(el)
        gw_id = inserted.get(ce.uid)
        if gw_id is not None:
            elements.append(BpmnElement(id=gw_id, kind="exclusiveGateway"))

    final: list[tuple[str, str, str | None]] = [
        (src, gw_id, None) for src, gw_id in inserted.items()]
    for f in m.flows:
        cond = "exception" if f.exceptional and f.condition is None else f.condition
        final.append((inserted.get(f.source, f.source), f.target, cond))

    flows: list[SequenceFlow] = []
    used_ids = set()
    for src, tgt, cond in final:
        fid = f"f_{src}_{tgt}"
        n = 2
        while fid in used_ids:
            fid = f"f_{src}_{tgt}_{n}"
            n += 1
        used_ids.add(fid)
        flows.append(SequenceFlow(fid, src, tgt, cond))
    return elements, flows


# ---------------------------------------------------------------------------
# serialization


def serialize_bpmn(model: BpmnModel) -> str:
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" xmlns:dsml="{DSML_NS}" '
        f'id="defs_{model.process_id}" targetNamespace="{DSML_NS}">'
    )
    out.append(f'  <bpmn:process id="{_att(model.process_id)}" isExecutable="true">')
    _emit_level(out, model.elements, model.flows, model.domain, indent=1)
    out.append("  </bpmn:process>")
    out.append("</bpmn:definitions>")
    return "\n".join(out) + "\n"


def _emit_level(out: list[str], elements: list[BpmnElement],
                flows: list[SequenceFlow], domain: str | None, indent: int) -> None:
    pad = "  " * (indent + 1)
    for e in elements:
        head = f'{pad}<bpmn:{e.kind} id="{_att(e.id)}"'
        if e.name:
            head += f' name="{_att(e.name)}"'
        has_ext = e.concept_uid is not None
        has_children = has_ext or e.inner_elements or e.inner_flows
        if not has_children:
            out.append(head + "/>")
            continue
        out.append(head + ">")
        if has_ext:
            out.append(f"{pad}  <bpmn:extensionElements>")
            out.append(
                f'{pad}    <dsml:conceptRef uid="{_att(e.concept_uid)}" '
                f'concept="{_att(e.concept_name or "")}" domain="{_att(domain or "")}"/>'
            )
            out.append(f"{pad}  </bpmn:extensionElements>")
        if e.inner_elements or e.inner_flows:
            _emit_level(out, e.inner_elements, e.inner_flows, domain, indent + 1)
        out.append(f"{pad}</bpmn:{e.kind}>")
    for f in flows:
        head = (f'{pad}<bpmn:sequenceFlow id="{_att(f.id)}" '
                f'sourceRef="{_att(f.source)}" targetRef="{_att(f.target)}"')
        if f.condition is None:
            out.append(head + "/>")
        else:
            out.append(head + ">")
            out.append(f"{pad}  <bpmn:conditionExpression>{_txt(f.condition)}"
                       f"</bpmn:conditionExpression>")
            out.append(f"{pad}</bpmn:sequenceFlow>")


def _att(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _txt(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# parsing


def parse_bpmn(xml_text: str) -> BpmnModel:
    """Parse the first process of a BPMN XML document into a model.

    Every flow element is kept, enrichment without a concept ref included;
    an element of a kind dsproc does not generate keeps its tag as ``kind``.
    Attributes other than ``id`` and ``name``, documentation and anything
    outside the process are not read: the model is for simulation and
    reconciliation, not for writing the file back. A subProcess nested more
    than :data:`MAX_NESTING` levels deep is an error.
    """
    import xml.etree.ElementTree as ET  # here, so that generating BPMN does not load it

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    if _local(root.tag) != "definitions":
        raise ParseError(f"expected definitions root, found {_local(root.tag)!r}")
    process = None
    for child in root:
        if _local(child.tag) == "process":
            process = child
            break
    if process is None:
        raise ParseError("no process element found")
    model = BpmnModel(process_id=process.get("id", "process"))
    elements, flows, domain = _parse_level(process)
    model.elements, model.flows, model.domain = elements, flows, domain

    all_flows = list(model.flows)
    for e in walk_elements(model):
        all_flows.extend(e.inner_flows)
    id_set = set()
    dupes = set()
    for i in [e.id for e in walk_elements(model)] + [f.id for f in all_flows]:
        if i in id_set:
            dupes.add(i)
        id_set.add(i)
    if dupes:
        raise ParseError(f"duplicate ids: {', '.join(sorted(dupes))}")

    for f in all_flows:
        for ref in (f.source, f.target):
            if ref not in id_set:
                raise ParseError(f"sequence flow {f.id!r} references unknown element {ref!r}")
    return model


def _parse_level(node, depth: int = 0
                 ) -> tuple[list[BpmnElement], list[SequenceFlow], str | None]:
    elements: list[BpmnElement] = []
    flows: list[SequenceFlow] = []
    domain: str | None = None
    for child in node:
        tag = _local(child.tag)
        if tag == "sequenceFlow":
            condition = None
            for sub in child:
                if _local(sub.tag) == "conditionExpression":
                    condition = sub.text or ""
            flows.append(SequenceFlow(
                child.get("id", ""), child.get("sourceRef", ""),
                child.get("targetRef", ""), condition))
            continue
        if tag in ("extensionElements", "conditionExpression", "incoming", "outgoing",
                   "documentation"):
            continue
        el = BpmnElement(id=child.get("id", ""), kind=tag, name=child.get("name", ""))
        for sub in child:
            if _local(sub.tag) == "extensionElements":
                for ext in sub:
                    if _local(ext.tag) == "conceptRef":
                        el.concept_uid = ext.get("uid")
                        el.concept_name = ext.get("concept")
                        domain = domain or ext.get("domain")
        if tag == "subProcess":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"subProcess {el.id!r} is nested more than {MAX_NESTING} levels deep")
            el.inner_elements, el.inner_flows, inner_domain = _parse_level(child, depth + 1)
            domain = domain or inner_domain
        elements.append(el)
    return elements, flows, domain


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _ncname(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
    if not safe or safe[0].isdigit() or safe[0] in ".-":
        safe = "_" + safe
    return safe
