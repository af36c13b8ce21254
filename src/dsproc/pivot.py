"""Pivot process model: the generic middle stage between DSL and BPMN.

The pivot keeps a deliberately flat element vocabulary (activity,
subprocess, gateway, event) plus flows, so front-end languages and target
languages stay decoupled. Concept-derived elements are tagged with their
originating concept; uids come from the persistent registry so repeated
generation of the same process yields identical models.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import DsprocError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .domain import Domain
    from .mappings import UidRegistry
    from .process import ProcessBody, ProcessModel

# element kinds; a gateway keeps its node kind, "exclusive" or "parallel"
ACTIVITY = "activity"
SUBPROCESS = "subprocess"
START = "start"
END = "end"

# ``source`` and ``target`` are uids
CommonFlow = namedtuple("CommonFlow", "source target condition exceptional",
                        defaults=(None, False))
# ``concept`` names the concept a concept-derived element comes from, else None;
# ``inner`` is the lowered body of a subprocess element, None for any other kind
CommonElement = namedtuple("CommonElement", "uid kind label concept inner",
                           defaults=("", None, None))
CommonModel = namedtuple("CommonModel", "name elements flows", defaults=((), ()))


def to_common(p: ProcessModel, d: Domain, registry: UidRegistry) -> CommonModel:
    """Lower a validated process model into the pivot representation.

    Concept references to leaf concepts become tagged activities; references
    to subprocess-defined concepts become tagged subprocess elements whose
    inner model is the recursively lowered concept body. Gateways and flows
    copy over 1:1; start/end become events.
    """
    return _lower_body(p.body, d, registry, p.name, p.name)


def _lower_body(body: ProcessBody, d: Domain, registry: UidRegistry,
                name: str, path: str) -> CommonModel:
    elements: list[CommonElement] = []
    uid_of: dict[str, str] = {}

    for node in body.nodes:
        node_path = f"{path}/{node.id}"
        uid = registry.uid_for(node_path)
        uid_of[node.id] = uid
        if node.kind == "start":
            elements.append(CommonElement(uid, START))
        elif node.kind == "end":
            elements.append(CommonElement(uid, END))
        elif node.kind in ("exclusive", "parallel"):
            elements.append(CommonElement(uid, node.kind, label=node.id))
        elif node.kind == "concept":
            concept = d.concept(node.concept)
            if concept is None:
                raise DsprocError(f"unresolved concept {node.concept!r} in {path}")
            inner = None
            if concept.subprocess is not None:
                inner = _lower_body(concept.subprocess, d, registry, node_path, node_path)
            kind = ACTIVITY if inner is None else SUBPROCESS
            elements.append(CommonElement(uid, kind, concept.label, concept.name, inner))
        else:  # pragma: no cover - parser only emits the kinds above
            raise DsprocError(f"unknown node kind {node.kind!r}")

    flows = tuple(
        CommonFlow(uid_of[f.source], uid_of[f.target], f.condition, f.exceptional)
        for f in body.flows
    )
    return CommonModel(name, tuple(elements), flows)

