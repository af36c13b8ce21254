"""Seeded input generators for the benchmark workloads.

Everything dsproc receives is written here from a ``random.Random(seed)``:
domain and process sources, bindings, simulation configs and the enriched
BPMN copy that ``sync`` reconciles. Sizes are fixed by the caller and do
not depend on the seed; the seed only chooses concepts, services, SLAs and
where exceptional flows and planted enrichment go, so timings stay
comparable across seeds.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

PROFILES = {
    "fast": {"kind": "uniform", "low": 10, "high": 50},
    "medium": {"kind": "normal", "mean": 200, "stddev": 40},
    "slow": {"kind": "uniform", "low": 300, "high": 900},
}

# name -> (metric, threshold, unit, severity). The thresholds sit inside the
# profiles' ranges, so on every seed some SLAs are violated and some are not.
SLAS: Dict[str, Tuple[str, float, str, str]] = {
    "RespondInOneSecond": ("max_duration", 1, "s", "critical"),
    "MeanUnderHalfSecond": ("max_mean_duration", 500, "ms", "warning"),
    "MeanUnderOneHour": ("max_mean_duration", 1, "h", "info"),
    "FaultsUnderTwoPct": ("max_fault_rate", 0.02, "ratio", "warning"),
}

TIME_UNITS_MS = {"ms": 1.0, "s": 1000.0, "min": 60_000.0, "h": 3_600_000.0,
                 "d": 86_400_000.0}

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
DSML_NS = "urn:dsml:1"
BPMNDI_NS = "http://www.omg.org/spec/BPMN/20100524/DI"
DC_NS = "http://www.omg.org/spec/DD/20100524/DC"
VENDOR_NS = "http://camunda.org/schema/1.0/bpmn"


@dataclass(frozen=True)
class Concept:
    name: str
    services: Tuple[str, ...] = ()
    sla: Optional[str] = None
    depends_on: Tuple[str, ...] = ()
    body: Tuple[str, ...] = ()  # leaf concepts of a subprocess chain


@dataclass(frozen=True)
class DomainSpec:
    name: str
    services: Dict[str, str]  # service -> duration profile
    concepts: Dict[str, Concept]  # in declaration order


def make_domain(rng: random.Random, n_concepts: int, n_subprocess: int,
                name: str = "Enterprise") -> DomainSpec:
    """Leaf concepts over shared services, plus subprocess concepts.

    About 30% of leaf concepts carry an SLA and 20% depend on earlier ones.
    Each subprocess concept is a chain of three leaf concepts.
    """
    n_services = max(4, n_concepts // 4)
    services = {f"svc{i}": rng.choice(("fast", "fast", "medium", "slow"))
                for i in range(n_services)}
    names = list(services)
    leaves: List[Concept] = []
    for i in range(n_concepts - n_subprocess):
        deps: Tuple[str, ...] = ()
        if leaves and rng.random() < 0.2:
            deps = tuple(sorted({rng.choice(leaves).name for _ in range(2)}))
        leaves.append(Concept(
            name=f"C{i}",
            services=tuple(rng.sample(names, rng.choice((1, 1, 2)))),
            sla=rng.choice(sorted(SLAS)) if rng.random() < 0.3 else None,
            depends_on=deps))
    subs = [Concept(name=f"S{i}",
                    body=tuple(c.name for c in rng.sample(leaves, 3)))
            for i in range(n_subprocess)]
    return DomainSpec(name, services, {c.name: c for c in leaves + subs})


def render_domain(d: DomainSpec) -> str:
    out = [f"domain {d.name} {{"]
    for svc in d.services:
        out.append(f'  service {svc} {{ operation "operate {svc}" }}')
    for sla, (metric, threshold, unit, severity) in SLAS.items():
        out.append(f"  sla {sla} {{ {metric} {threshold} {unit} severity {severity} }}")
    for c in d.concepts.values():
        out.append(f"  concept {c.name} {{")
        out.append(f'    label "Concept {c.name}"')
        if c.services:
            out.append(f"    services [{', '.join(c.services)}]")
        if c.sla:
            out.append(f"    sla {c.sla}")
        if c.depends_on:
            out.append(f"    depends_on [{', '.join(c.depends_on)}]")
        if c.body:
            out.append("    subprocess {")
            for i, leaf in enumerate(c.body):
                out.append(f"      node n{i}: concept {leaf}")
            steps = ["start"] + [f"n{i}" for i in range(len(c.body))] + ["end"]
            for src, tgt in zip(steps, steps[1:]):
                out.append(f"      {src} -> {tgt}")
            out.append("    }")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ProcessSpec:
    name: str
    source: str
    tasks: Tuple[Tuple[str, str], ...]  # (node id, concept) per concept node


def make_process(rng: random.Random, name: str, d: DomainSpec, units: int,
                 exceptional_share: float) -> ProcessSpec:
    """A chain of ``units`` blocks of 17 nodes each.

    One unit is three tasks, an exclusive split/join with two branches of
    two tasks, two tasks, and a parallel split/join with two branches of
    two tasks. Every subprocess concept, then every leaf concept, is dealt
    before any concept repeats, and the dealt concepts are shuffled over the
    tasks. ``exceptional_share`` of
    all tasks get an exceptional flow to ``end``; parallel branches never
    do, because a token leaving a parallel branch early would strand its
    join.
    """
    nodes: List[str] = []
    flows: List[str] = []
    tasks: List[str] = []
    eligible: List[str] = []

    def task(exc_ok: bool) -> str:
        node_id = f"t{len(tasks)}"
        tasks.append(node_id)
        if exc_ok:
            eligible.append(node_id)
        return node_id

    def chain(prev: str, ids: Sequence[str], cond: Optional[str] = None) -> str:
        for node_id in ids:
            flows.append(f'{prev} -> {node_id}' + (f' when "{cond}"' if cond else ""))
            cond = None
            prev = node_id
        return prev

    prev = "start"
    gateways: List[Tuple[str, str]] = []
    for u in range(units):
        prev = chain(prev, [task(True) for _ in range(3)])
        split, join = f"x{u}s", f"x{u}j"
        gateways += [(split, "exclusive"), (join, "exclusive")]
        flows.append(f"{prev} -> {split}")
        for branch in "ab":
            last = chain(split, [task(True) for _ in range(2)], cond=f"branch {branch}")
            flows.append(f"{last} -> {join}")
        prev = chain(join, [task(True) for _ in range(2)])
        split, join = f"p{u}s", f"p{u}j"
        gateways += [(split, "parallel"), (join, "parallel")]
        flows.append(f"{prev} -> {split}")
        for _branch in "ab":
            last = chain(split, [task(False) for _ in range(2)])
            flows.append(f"{last} -> {join}")
        prev = join
    flows.append(f"{prev} -> end")
    for node_id in sorted(rng.sample(eligible, round(exceptional_share * len(tasks))),
                          key=lambda t: int(t[1:])):
        flows.append(f"{node_id} -> end exceptional")

    subs = [c.name for c in d.concepts.values() if c.body]
    leaves = [c.name for c in d.concepts.values() if not c.body]
    deal = rng.sample(subs, len(subs)) + rng.sample(leaves, len(leaves))
    dealt = [deal[i % len(deal)] for i in range(len(tasks))]
    rng.shuffle(dealt)
    for node_id, concept in zip(tasks, dealt):
        nodes.append(f"  node {node_id}: concept {concept}")
    for node_id, kind in gateways:
        nodes.append(f"  node {node_id}: {kind}")
    source = (f"process {name} uses {d.name} {{\n" + "\n".join(nodes) + "\n"
              + "\n".join(f"  {f}" for f in flows) + "\n}\n")
    return ProcessSpec(name, source, tuple(zip(tasks, dealt)))


def leaf_concepts(p: ProcessSpec, d: DomainSpec) -> List[str]:
    """Concept of every leaf activity the process compiles to."""
    out: List[str] = []
    for _node, concept in p.tasks:
        body = d.concepts[concept].body
        out.extend(body if body else (concept,))
    return out


def render_bindings(d: DomainSpec) -> str:
    return json.dumps({"bindings": {
        svc: {"endpoint": f"sim://{svc}", "profile": profile}
        for svc, profile in d.services.items()}}, indent=2, sort_keys=True) + "\n"


def render_sim(instances: int, seed: int, branch_probs: Dict[str, Dict[str, float]],
               fault_probs: Optional[Dict[str, float]] = None) -> str:
    return json.dumps({
        "instance_count": instances, "seed": seed, "profiles": PROFILES,
        "default_profile": "fast", "branch_probs": branch_probs,
        "fault_probs": fault_probs or {},
    }, indent=2, sort_keys=True) + "\n"


def _q(ns: str, tag: str) -> str:
    return f"{{{ns}}}{tag}"


for _prefix, _ns in (("bpmn", BPMN_NS), ("dsml", DSML_NS), ("bpmndi", BPMNDI_NS),
                     ("dc", DC_NS), ("camunda", VENDOR_NS)):
    ET.register_namespace(_prefix, _ns)


def enrich_bpmn(rng: random.Random, xml_text: str, n_technical: int
                ) -> Tuple[str, List[str]]:
    """A modeller's edit of a generated BPMN file.

    Splices ``n_technical`` technical tasks into randomly chosen top-level
    sequence flows, documents and vendor-annotates every tenth concept task,
    and adds a ``bpmndi:BPMNDiagram`` with one shape per flow element.
    Returns the edited XML and the ids of the planted technical tasks.
    """
    root = ET.fromstring(xml_text)
    process = root.find(_q(BPMN_NS, "process"))
    flows = process.findall(_q(BPMN_NS, "sequenceFlow"))
    planted: List[str] = []
    for i, flow in enumerate(rng.sample(flows, n_technical)):
        task_id = f"tech{i}"
        ET.SubElement(process, _q(BPMN_NS, "task"), {"id": task_id,
                                                      "name": f"Audit step {i}"})
        ET.SubElement(process, _q(BPMN_NS, "sequenceFlow"), {
            "id": f"f_{task_id}", "sourceRef": task_id,
            "targetRef": flow.get("targetRef")})
        flow.set("targetRef", task_id)
        planted.append(task_id)

    elements = [e for e in process.iter()
                if e.get("id") and e.tag != _q(BPMN_NS, "sequenceFlow")
                and e is not process]
    concept_tasks = [e for e in elements if e.tag == _q(BPMN_NS, "serviceTask")]
    for e in concept_tasks[::10]:
        e.set(_q(VENDOR_NS, "asyncBefore"), "true")
        doc = ET.Element(_q(BPMN_NS, "documentation"))
        doc.text = f"Reviewed by the process owner ({e.get('id')})."
        e.insert(0, doc)

    diagram = ET.SubElement(root, _q(BPMNDI_NS, "BPMNDiagram"), {"id": "diagram"})
    plane = ET.SubElement(diagram, _q(BPMNDI_NS, "BPMNPlane"),
                          {"id": "plane", "bpmnElement": process.get("id")})
    for i, e in enumerate(elements):
        shape = ET.SubElement(plane, _q(BPMNDI_NS, "BPMNShape"),
                              {"id": f"shape_{e.get('id')}", "bpmnElement": e.get("id")})
        ET.SubElement(shape, _q(DC_NS, "Bounds"), {
            "x": str(100 + 150 * (i % 40)), "y": str(100 + 120 * (i // 40)),
            "width": "100", "height": "80"})
    return ET.tostring(root, encoding="unicode") + "\n", planted
