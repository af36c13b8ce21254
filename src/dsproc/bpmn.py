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

from collections import namedtuple

from .diagnostics import MAX_NESTING, ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterator

    from .pivot import CommonModel

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
DSML_NS = "urn:dsml:1"

_KIND_FROM_COMMON = {
    "start": "startEvent",
    "end": "endEvent",
    "activity": "serviceTask",
    "subprocess": "subProcess",
    "exclusive": "exclusiveGateway",
    "parallel": "parallelGateway",
}

SequenceFlow = namedtuple("SequenceFlow", "id source target condition", defaults=(None,))
# a flow element; the elements and flows of a subProcess are a level of the model
BpmnElement = namedtuple("BpmnElement", "id kind name concept_uid concept_name",
                         defaults=("", None, None))
# ``levels`` maps the path of each level, the ids of the subProcesses around
# it (``()`` for the process), to its ``(elements, flows)`` lists in document
# order; the levels are in the order their subProcess opens
BpmnModel = namedtuple("BpmnModel", "process_id levels domain", defaults=(None,))


def walk_elements(model: BpmnModel) -> Iterator[BpmnElement]:
    """All elements of a model in document order, each subProcess followed by its own."""
    stack = [((), e) for e in reversed(model.levels[()][0])]
    while stack:
        path, e = stack.pop()
        yield e
        if e.kind == "subProcess":
            inner = path + (e.id,)
            stack.extend((inner, x) for x in reversed(model.levels[inner][0]))


def generate_bpmn(m: CommonModel, domain_name: str) -> BpmnModel:
    """Deterministically lower a pivot model to BPMN."""
    levels = {}
    work = [((), m)]
    while work:  # last in, first out: each level is followed by those inside it
        path, level = work.pop()
        levels[path] = _lower_level(level)
        work.extend((path + (ce.uid,), ce.inner) for ce in reversed(level.elements)
                    if ce.inner is not None)
    return BpmnModel(_ncname(m.name), levels, domain_name)


def _lower_level(m: CommonModel) -> tuple[list[BpmnElement], list[SequenceFlow]]:
    # exceptional-flow lowering: each non-gateway source of an exceptional
    # flow gets one routing gateway, emitted straight after the source
    kind_of = {ce.uid: ce.kind for ce in m.elements}
    inserted: dict[str, str] = {}
    for f in m.flows:
        if f.exceptional and kind_of[f.source] != "exclusive" and f.source not in inserted:
            inserted[f.source] = f"{f.source}_exc"

    elements: list[BpmnElement] = []
    for ce in m.elements:
        elements.append(BpmnElement(ce.uid, _KIND_FROM_COMMON[ce.kind], ce.label,
                                    None if ce.concept is None else ce.uid, ce.concept))
        gw_id = inserted.get(ce.uid)
        if gw_id is not None:
            elements.append(BpmnElement(gw_id, "exclusiveGateway"))

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
    _emit_level(out, model, (), indent=1)
    out.append("  </bpmn:process>")
    out.append("</bpmn:definitions>")
    return "\n".join(out) + "\n"


def _emit_level(out: list[str], model: BpmnModel, path: tuple[str, ...], indent: int) -> None:
    pad = "  " * (indent + 1)
    elements, flows = model.levels[path]
    for e in elements:
        head = f'{pad}<bpmn:{e.kind} id="{_att(e.id)}"'
        if e.name:
            head += f' name="{_att(e.name)}"'
        inner = path + (e.id,) if e.kind == "subProcess" else None
        nested = inner is not None and any(model.levels[inner])
        if e.concept_uid is None and not nested:
            out.append(head + "/>")
            continue
        out.append(head + ">")
        if e.concept_uid is not None:
            out.append(f"{pad}  <bpmn:extensionElements>")
            out.append(
                f'{pad}    <dsml:conceptRef uid="{_att(e.concept_uid)}" '
                f'concept="{_att(e.concept_name or "")}" domain="{_att(model.domain or "")}"/>'
            )
            out.append(f"{pad}  </bpmn:extensionElements>")
        if nested:
            _emit_level(out, model, inner, indent + 1)
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
    than :data:`MAX_NESTING` levels deep is an error, and so is a sequence
    flow whose ends are not both elements of its own level.
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
    # the children still to read, each with the path of its level, the next on top
    levels = {(): ([], [])}
    domain = None
    stack = [((), child) for child in reversed(process)]
    while stack:
        path, child = stack.pop()
        tag = _local(child.tag)
        elements, flows = levels[path]
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
        concept_uid = concept_name = None
        for sub in child:
            if _local(sub.tag) == "extensionElements":
                for ext in sub:
                    if _local(ext.tag) == "conceptRef":
                        concept_uid, concept_name = ext.get("uid"), ext.get("concept")
                        domain = domain or ext.get("domain")
        el = BpmnElement(child.get("id", ""), tag, child.get("name", ""), concept_uid,
                         concept_name)
        elements.append(el)
        if tag == "subProcess":
            if len(path) == MAX_NESTING:
                raise ParseError(
                    f"subProcess {el.id!r} is nested more than {MAX_NESTING} levels deep")
            inner = path + (el.id,)
            levels.setdefault(inner, ([], []))  # a duplicate id shares the level
            stack.extend((inner, sub) for sub in reversed(child))

    ids, dupes = set(), set()
    for elements, flows in levels.values():
        for item in elements + flows:
            if item.id in ids:
                dupes.add(item.id)
            ids.add(item.id)
    if dupes:
        raise ParseError(f"duplicate ids: {', '.join(sorted(dupes))}")

    # a sequence flow connects two elements of its own level: it does not
    # cross a subProcess boundary (OMG BPMN 2.0, formal/11-01-03)
    level_of = {e.id: path for path, (elements, _) in levels.items() for e in elements}
    for path, (_, flows) in levels.items():
        for f in flows:
            for ref in (f.source, f.target):
                at = level_of.get(ref)
                if at is None:
                    raise ParseError(
                        f"sequence flow {f.id!r} references unknown element {ref!r}")
                if at != path:
                    where = f"subProcess {at[-1]!r}" if at else "the process"
                    raise ParseError(f"sequence flow {f.id!r} references element {ref!r} "
                                     f"of {where} across a subProcess boundary")
    return BpmnModel(process.get("id", "process"), levels, domain)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _ncname(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
    if not safe or safe[0].isdigit() or safe[0] in ".-":
        safe = "_" + safe
    return safe
