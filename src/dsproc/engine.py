"""Deterministic token simulator for generated BPMN models.

Runs on a virtual millisecond clock (no wall-clock dependence): a
discrete-event queue ordered by (time, insertion order) drives tokens
through the flow graph. Activity durations come from per-endpoint duration
profiles in the deployment manifest; every random draw is taken from one
seeded Mersenne Twister stream in processing order, so a (model, manifest,
config) triple always yields a byte-identical event log.

Log format: JSON Lines. The first line is a header
``{"log_version": 1, "seed": ..., "rng": "python-mt19937"}``; each
following line is one event record with a stable field order. For
``gatewayTaken`` records ``element_id`` names the sequence flow that was
taken.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from .bpmn import BpmnElement, BpmnModel, SequenceFlow
from .deploy import DeploymentManifest
from .diagnostics import DsprocError, json_check, json_field, json_members

RNG_ID = "python-mt19937"
LOG_VERSION = 1

_NUMBER = (int, float)
# every field of an event record in log order, with the types a line may
# carry for it; the first five are required
_FIELD_TYPES = {"seq": int, "ts_ms": _NUMBER, "kind": str, "process": str, "instance": int,
                "element_uid": str, "element_id": str, "concept": str, "service": str,
                "status": str, "duration_ms": _NUMBER}
_FIELD_ORDER = tuple(_FIELD_TYPES)
_REQUIRED = frozenset(_FIELD_ORDER[:5])


class SimulationError(DsprocError):
    pass


@dataclass(frozen=True)
class DurationProfile:
    kind: str  # fixed | uniform | normal
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    stddev: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform", "normal"):
            raise SimulationError(f"unknown profile kind {self.kind!r}")
        if self.kind == "fixed" and self.value < 0:
            raise SimulationError("fixed duration must be >= 0")
        if self.kind == "uniform" and not (0 <= self.low <= self.high):
            raise SimulationError("uniform profile requires 0 <= low <= high")
        if self.kind == "normal" and (self.stddev < 0 or self.mean < 0):
            raise SimulationError("normal profile requires mean >= 0 and stddev >= 0")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "fixed":
            return self.value
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * rng.random()
        # Box-Muller from two uniform draws, truncated at zero
        u1 = rng.random() or 1e-12
        u2 = rng.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return max(0.0, self.mean + self.stddev * z)

    @classmethod
    def from_json(cls, obj: dict, where: str) -> "DurationProfile":
        """A profile from its JSON object at path ``where``; its numbers default to 0."""
        def number(key: str) -> float:
            return float(json_field(obj, key, "number", where, 0.0))
        return cls(kind=json_field(obj, "kind", "string", where), value=number("value"),
                   low=number("low"), high=number("high"), mean=number("mean"),
                   stddev=number("stddev"))


@dataclass
class SimulationConfig:
    instance_count: int = 1
    seed: int = 0
    profiles: Dict[str, DurationProfile] = field(default_factory=dict)
    branch_probs: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fault_probs: Dict[str, float] = field(default_factory=dict)
    default_profile: Optional[str] = None

    def validate(self) -> None:
        if self.instance_count < 1:
            raise SimulationError("instance_count must be >= 1")
        for gw, probs in self.branch_probs.items():
            total = sum(probs.values())
            if abs(total - 1.0) > 1e-9:
                raise SimulationError(
                    f"branch probabilities for gateway {gw!r} sum to {total}, not 1")
            for flow, p in probs.items():
                if not 0.0 <= p <= 1.0:
                    raise SimulationError(f"branch probability {gw}/{flow} out of [0, 1]")
        for uid, p in self.fault_probs.items():
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"fault probability for {uid!r} out of [0, 1]")
        if self.default_profile is not None and self.default_profile not in self.profiles:
            raise SimulationError(f"default profile {self.default_profile!r} not defined")

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        doc = json_check(json.loads(text), "object")
        branch = json_field(doc, "branch_probs", "object", default={})
        cfg = cls(
            instance_count=json_field(doc, "instance_count", "integer", default=1),
            seed=json_field(doc, "seed", "integer", default=0),
            profiles={k: DurationProfile.from_json(v, path)
                      for k, v, path in json_members(doc, "profiles", "object")},
            branch_probs={gw: {flow: p for flow, p, _ in
                               json_members(branch, gw, "number", "branch_probs")}
                          for gw in branch},
            fault_probs={k: p for k, p, _ in json_members(doc, "fault_probs", "number")},
            default_profile=json_field(doc, "default_profile", "string", default=None),
        )
        cfg.validate()
        return cfg


@dataclass(slots=True)
class EventRecord:
    seq: int
    ts_ms: float
    kind: str
    process: str
    instance: int
    element_uid: Optional[str] = None
    element_id: Optional[str] = None
    concept: Optional[str] = None
    service: Optional[str] = None
    status: Optional[str] = None
    duration_ms: Optional[float] = None

    def to_json_line(self) -> str:
        doc = {}
        for name in _FIELD_ORDER:
            value = getattr(self, name)
            if value is None:
                continue
            doc[name] = value
        return json.dumps(doc)


def log_header(cfg: SimulationConfig) -> str:
    return json.dumps({"log_version": LOG_VERSION, "seed": cfg.seed, "rng": RNG_ID})


def decode_line(line: str) -> Union[dict, EventRecord]:
    """Decode one log line with a single ``json.loads``.

    Returns the header as a dict and any other line as an
    :class:`EventRecord`. A line that is neither (not JSON, not an object,
    a required field missing, a field of the wrong type, an unsupported
    log version) raises :class:`DsprocError`.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DsprocError(f"malformed record: {exc}") from None
    if not isinstance(doc, dict):
        raise DsprocError("malformed record: not a JSON object")
    if "log_version" in doc:
        if doc["log_version"] != LOG_VERSION:
            raise DsprocError(f"unsupported log version {doc['log_version']!r}")
        return doc
    values = []
    for name, types in _FIELD_TYPES.items():
        value = doc.get(name)
        if value is None:
            if name in _REQUIRED:
                raise DsprocError(f"malformed record: {name!r} missing")
        elif value.__class__ is bool or not isinstance(value, types):
            raise DsprocError(f"malformed record: {name!r} has the wrong type")
        values.append(value)
    return EventRecord(*values)


def render_log(records: List[EventRecord], cfg: SimulationConfig) -> str:
    lines = [log_header(cfg)]
    lines.extend(r.to_json_line() for r in records)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution graph


class _Level:
    def __init__(self, elements: List[BpmnElement], flows: List[SequenceFlow], where: str):
        self.elements: Dict[str, BpmnElement] = {e.id: e for e in elements}
        self.outgoing: Dict[str, List[SequenceFlow]] = {}
        self.incoming_count: Dict[str, int] = {}
        for f in flows:
            self.outgoing.setdefault(f.source, []).append(f)
            self.incoming_count[f.target] = self.incoming_count.get(f.target, 0) + 1
        starts = [e for e in elements if e.kind == "startEvent"]
        if len(starts) != 1:
            raise SimulationError(f"{where}: expected exactly one startEvent")
        self.start_id = starts[0].id


def _build_levels(model: BpmnModel) -> Dict[Tuple[str, ...], _Level]:
    levels: Dict[Tuple[str, ...], _Level] = {}

    def build(elements, flows, path: Tuple[str, ...], where: str):
        levels[path] = _Level(elements, flows, where)
        for e in elements:
            if e.kind == "subProcess":
                build(e.inner_elements, e.inner_flows, path + (e.id,), f"{where}/{e.id}")

    build(model.elements, model.flows, (), model.process_id)
    return levels


# ---------------------------------------------------------------------------
# simulation


def simulate(model: BpmnModel, manifest: DeploymentManifest,
             cfg: SimulationConfig) -> List[EventRecord]:
    cfg.validate()
    levels = _build_levels(model)
    _check_branch_probs(levels, cfg)
    rows = {r.uid: r for r in manifest.rows}
    rng = random.Random(cfg.seed)
    process = model.process_id

    records: List[EventRecord] = []
    last_ts: Dict[int, float] = {}
    ended: Dict[int, bool] = {}
    faulted: Dict[int, bool] = {}
    ctx_active: Dict[Tuple[int, Tuple[str, ...]], int] = {}
    ctx_fault: Dict[Tuple[int, Tuple[str, ...]], bool] = {}
    join_arrivals: Dict[Tuple[int, Tuple[str, ...], str], int] = {}

    def emit(ts: float, kind: str, instance: int, **fields) -> None:
        records.append(EventRecord(0, ts, kind, process, instance, **fields))
        last_ts[instance] = max(last_ts.get(instance, 0.0), ts)

    heap: List[Tuple[float, int, int, Tuple[str, ...], str, str]] = []
    counter = 0

    def schedule(ts: float, inst: int, path: Tuple[str, ...], elem_id: str, action: str) -> None:
        nonlocal counter
        heapq.heappush(heap, (ts, counter, inst, path, elem_id, action))
        counter += 1

    def absorb(inst: int, path: Tuple[str, ...], ts: float, fault: bool) -> None:
        key = (inst, path)
        ctx_active[key] -= 1
        if fault:
            ctx_fault[key] = True
            faulted[inst] = True
        if ctx_active[key] > 0:
            return
        if path == ():
            if not ended.get(inst):
                ended[inst] = True
                status = "fault" if faulted.get(inst) else "ok"
                emit(ts, "processEnd", inst, element_id=process, status=status,
                     duration_ms=ts)
            return
        # inner level drained: resume (or kill) the suspended outer token
        sub_fault = ctx_fault.pop(key, False)
        del ctx_active[key]
        parent = path[:-1]
        if sub_fault:
            absorb(inst, parent, ts, fault=True)
        else:
            move(inst, parent, path[-1], ts)

    def move(inst: int, path: Tuple[str, ...], elem_id: str, ts: float) -> None:
        level = levels[path]
        flows = level.outgoing.get(elem_id, [])
        if not flows:
            # dead end that is not an end event: token is lost
            absorb(inst, path, ts, fault=False)
            return
        if len(flows) > 1:
            ctx_active[(inst, path)] += len(flows) - 1
        for f in flows:
            schedule(ts, inst, path, f.target, "enter")

    def enter(inst: int, path: Tuple[str, ...], elem_id: str, ts: float) -> None:
        level = levels[path]
        elem = level.elements.get(elem_id)
        if elem is None:
            raise SimulationError(f"flow targets unknown element {elem_id!r}")
        if elem.kind == "startEvent":
            move(inst, path, elem_id, ts)
        elif elem.kind == "endEvent":
            absorb(inst, path, ts, fault=False)
        elif elem.kind == "exclusiveGateway":
            flows = level.outgoing.get(elem.id, [])
            if not flows:
                raise SimulationError(f"gateway {elem.id!r} has no outgoing flow")
            chosen = _choose(flows, cfg.branch_probs.get(elem.id), rng)
            if len(flows) > 1:
                emit(ts, "gatewayTaken", inst, element_id=chosen.id)
            schedule(ts, inst, path, chosen.target, "enter")
        elif elem.kind == "parallelGateway":
            incoming = level.incoming_count.get(elem.id, 0)
            if incoming > 1:
                key = (inst, path, elem.id)
                join_arrivals[key] = join_arrivals.get(key, 0) + 1
                if join_arrivals[key] < incoming:
                    return  # token waits at the join
                join_arrivals[key] = 0
                ctx_active[(inst, path)] -= incoming - 1
            move(inst, path, elem_id, ts)
        elif elem.kind == "subProcess":
            inner = path + (elem.id,)
            key = (inst, inner)
            ctx_active[key] = ctx_active.get(key, 0) + 1
            ctx_fault.setdefault(key, False)
            schedule(ts, inst, inner, levels[inner].start_id, "enter")
        else:
            _run_activity(inst, path, elem, ts)

    def _run_activity(inst: int, path: Tuple[str, ...], elem: BpmnElement, ts: float) -> None:
        row = rows.get(elem.concept_uid) if elem.concept_uid else None
        emit(ts, "activityStart", inst, element_uid=elem.concept_uid,
             element_id=elem.id, concept=row.concept if row else None)
        total = 0.0
        if row is not None and row.endpoints:
            for ep in row.endpoints:
                profile = _profile_for(ep.profile, cfg)
                d = profile.sample(rng)
                total += d
                emit(ts + total, "serviceInvoke", inst, element_uid=elem.concept_uid,
                     element_id=elem.id, concept=row.concept, service=ep.service,
                     status="ok", duration_ms=d)
        elif cfg.default_profile is not None:
            total = cfg.profiles[cfg.default_profile].sample(rng)
        fault_p = cfg.fault_probs.get(elem.concept_uid or elem.id, 0.0)
        fault = fault_p > 0.0 and rng.random() < fault_p
        emit(ts + total, "activityEnd", inst, element_uid=elem.concept_uid,
             element_id=elem.id, concept=row.concept if row else None,
             status="fault" if fault else "ok", duration_ms=total)
        schedule(ts + total, inst, path, elem.id, "fault" if fault else "move")

    for inst in range(1, cfg.instance_count + 1):
        ctx_active[(inst, ())] = 1
        emit(0.0, "processStart", inst, element_id=process, status="ok")
        schedule(0.0, inst, (), levels[()].start_id, "enter")

    while heap:
        ts, _, inst, path, elem_id, action = heapq.heappop(heap)
        if ended.get(inst):
            continue
        if action == "enter":
            enter(inst, path, elem_id, ts)
        elif action == "move":
            move(inst, path, elem_id, ts)
        else:  # fault
            absorb(inst, path, ts, fault=True)

    stuck = []
    for inst in range(1, cfg.instance_count + 1):
        if ended.get(inst):
            continue
        if faulted.get(inst):
            # sibling branches of a faulted instance may be parked at a join;
            # close the instance at its last observed time
            ended[inst] = True
            ts = last_ts.get(inst, 0.0)
            emit(ts, "processEnd", inst, element_id=process, status="fault",
                 duration_ms=ts)
        else:
            stuck.append(inst)
    if stuck:
        raise SimulationError(
            "deadlock: join never satisfied for instance(s) "
            + ", ".join(str(i) for i in stuck))

    # the sort is stable, so events of one timestamp keep their emission order
    records.sort(key=attrgetter("ts_ms"))
    for seq, record in enumerate(records, start=1):
        record.seq = seq
    return records


def _choose(flows: List[SequenceFlow], probs: Optional[Dict[str, float]],
            rng: random.Random) -> SequenceFlow:
    if len(flows) == 1:
        return flows[0]
    if probs is None:
        idx = min(int(rng.random() * len(flows)), len(flows) - 1)
        return flows[idx]
    r = rng.random()
    acc = 0.0
    for f in flows:
        acc += probs.get(f.id, 0.0)
        if r < acc:
            return f
    return flows[-1]


def _profile_for(name: Optional[str], cfg: SimulationConfig) -> DurationProfile:
    if name is None:
        name = cfg.default_profile
    if name is None:
        raise SimulationError("endpoint has no duration profile and no default is set")
    profile = cfg.profiles.get(name)
    if profile is None:
        raise SimulationError(f"missing duration profile {name!r}")
    return profile


def _check_branch_probs(levels: Dict[Tuple[str, ...], _Level], cfg: SimulationConfig) -> None:
    for level in levels.values():
        for elem in level.elements.values():
            probs = cfg.branch_probs.get(elem.id)
            if probs is None:
                continue
            flow_ids = {f.id for f in level.outgoing.get(elem.id, [])}
            unknown = set(probs) - flow_ids
            if unknown:
                raise SimulationError(
                    f"branch probabilities for {elem.id!r} name unknown flows: "
                    + ", ".join(sorted(unknown)))
            missing = flow_ids - set(probs)
            if missing:
                raise SimulationError(
                    f"branch probabilities for {elem.id!r} miss flows: "
                    + ", ".join(sorted(missing)))
