"""Deterministic token simulator for generated BPMN models.

Runs on a virtual millisecond clock (no wall-clock dependence): a
discrete-event queue ordered by (time, insertion order) drives tokens
through the flow graph. The queue is a heap of the events after the
current time and a first-in, first-out list of those scheduled at it; the
next event is the one that sorts first by ``(ts, counter)`` of the two
heads, so it is taken in the order one heap of every event would give.
Activity durations come from per-endpoint duration profiles in the
deployment manifest; every random draw is taken from one seeded Mersenne
Twister stream in processing order, so a (model, manifest, config) triple
always yields a byte-identical event log (its format: :mod:`dsproc.eventlog`).

A scope is one run of a level: each instance's process has one, and so
does each token that enters a subProcess, as BPMN starts one subprocess
instance per arriving token. A scope counts its live tokens (queued,
parked at a join, or inside a scope it started); when the count falls to
0 the scope ends, and it resumes the token that started it, or passes its
fault to it, or ends the instance.
"""

from __future__ import annotations

import math
import random
from collections import deque, namedtuple
from heapq import heappop, heappush
from operator import itemgetter
from types import MappingProxyType

from .diagnostics import (DsprocError, json_check, json_field, json_members, parse_json,
                          reachable, sum_in_order)
# render_log too: bench/spans.py's probe of the writer wraps it as engine.render_log
from .eventlog import EventRecord, render_log

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable

    from .bpmn import BpmnElement, BpmnModel, SequenceFlow
    from .deploy import DeploymentManifest


class SimulationError(DsprocError):
    pass


class ModelError(SimulationError):
    """The model cannot run, whatever the configuration: its BPMN is at fault."""


class ConfigError(SimulationError):
    """The configuration does not fit the model: a profile it lacks, a
    probability keyed by no element, or probabilities or durations the
    model cannot run with."""


class DurationProfile(namedtuple("DurationProfile", "kind value low high mean stddev",
                                 defaults=(0.0, 0.0, 0.0, 0.0, 0.0))):
    """``kind`` is fixed, uniform or normal; each reads its own numbers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DurationProfile:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("fixed", "uniform", "normal"):
            raise SimulationError(f"unknown profile kind {self.kind!r}")
        # no profile may draw NaN, which has no place in the queue's time order
        if self.kind == "fixed" and not self.value >= 0:
            raise SimulationError("fixed duration must be >= 0")
        if self.kind == "fixed" and self.value == math.inf:
            raise SimulationError("fixed profile requires a finite value")
        if self.kind == "uniform" and not (0 <= self.low <= self.high):
            raise SimulationError("uniform profile requires 0 <= low <= high")
        if self.kind == "uniform" and self.high == math.inf:
            raise SimulationError("uniform profile requires a finite high")
        if self.kind == "normal" and not (self.stddev >= 0 and self.mean >= 0):
            raise SimulationError("normal profile requires mean >= 0 and stddev >= 0")
        if self.kind == "normal" and math.inf in (self.mean, self.stddev):
            raise SimulationError("normal profile requires a finite mean and stddev")
        return self

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
        return cls(json_field(obj, "kind", "string", where),
                   *(float(json_field(obj, key, "number", where, 0.0))
                     for key in cls._fields[1:]))


_NO_ENTRIES = MappingProxyType({})


class SimulationConfig(namedtuple("SimulationConfig", "instance_count seed profiles branch_probs "
                                                      "fault_probs default_profile",
                                  defaults=(1, 0, _NO_ENTRIES, _NO_ENTRIES, _NO_ENTRIES, None))):
    """A run's settings: ``profiles`` maps names to :class:`DurationProfile`,
    ``branch_probs`` each gateway to its flows' probabilities, and
    ``fault_probs`` activities to theirs."""

    __slots__ = ()

    def validate(self) -> None:
        if self.instance_count < 1:
            raise SimulationError("instance_count must be >= 1")
        for gw, probs in self.branch_probs.items():
            total = sum_in_order(probs.values())
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
        doc = json_check(parse_json(text), "object")
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


# ---------------------------------------------------------------------------
# execution graph


# element kinds the simulator routes a token through; every other kind runs as an activity
_CONTROL_KINDS = frozenset({"startEvent", "endEvent", "exclusiveGateway", "parallelGateway",
                            "subProcess"})


class _Level:
    def __init__(self, elements: list[BpmnElement], flows: list[SequenceFlow], where: str):
        self.where = where
        self.elements: dict[str, BpmnElement] = {e.id: e for e in elements}
        self.outgoing: dict[str, list[SequenceFlow]] = {}
        self.incoming_count: dict[str, int] = {}
        for f in flows:
            self.outgoing.setdefault(f.source, []).append(f)
            self.incoming_count[f.target] = self.incoming_count.get(f.target, 0) + 1
        starts = [e for e in elements if e.kind == "startEvent"]
        if len(starts) != 1:
            raise ModelError(f"{where}: expected exactly one startEvent")
        self.start_id = starts[0].id
        for e in elements:
            if e.kind == "exclusiveGateway" and e.id not in self.outgoing:
                raise ModelError(f"{where}: gateway {e.id!r} has no outgoing flow")
        self.activities: dict[str, tuple] = {}  # each activity's _activity, from simulate
        self.inner: dict[str, _Level] = {}  # each subProcess's level, from simulate


class _Scope:
    """One run of ``level`` in instance ``inst``: its process's, or that of
    the token of ``parent`` that entered subProcess ``elem_id``; ``active``
    counts its live tokens, and ``fault`` is set once one of them faults."""

    __slots__ = ("inst", "level", "parent", "elem_id", "active", "fault")

    def __init__(self, inst: int, level: _Level, parent: _Scope | None, elem_id: str | None):
        self.inst = inst
        self.level = level
        self.parent = parent
        self.elem_id = elem_id
        self.active = 1
        self.fault = False


# ---------------------------------------------------------------------------
# simulation


def simulate(model: BpmnModel, manifest: DeploymentManifest,
             cfg: SimulationConfig) -> list[EventRecord]:
    """The records of a run of ``cfg.instance_count`` instances, ordered by time.

    The whole input is checked before the first event: a :class:`ModelError`
    when the model cannot run, a :class:`ConfigError` when ``cfg`` does not
    fit it. The only error found during the run is a deadlock (a
    ModelError), and the only one after it a clock past the largest float.
    """
    cfg.validate()
    levels = {path: _Level(elements, flows, "/".join((model.process_id,) + path))
              for path, (elements, flows) in model.levels.items()}
    _check_probs(levels, cfg, model.process_id)
    rows = {r.uid: r for r in manifest.rows}
    for path, level in levels.items():
        level.activities = {e.id: _activity(e, rows, cfg) for e in level.elements.values()
                            if e.kind not in _CONTROL_KINDS}
        if path:
            levels[path[:-1]].inner[path[-1]] = level
    _check_exits(levels, cfg)
    rng = random.Random(cfg.seed)
    process = model.process_id
    new = tuple.__new__  # an EventRecord from its ten fields, without a Python-level call

    records: list[EventRecord] = []
    emit = records.append
    faulted: set[int] = set()
    # the tokens parked at each join of a scope; an entry goes when its join fires
    join_arrivals: dict[tuple[_Scope, str], int] = {}

    # the queue: the events after the current time `now` in a heap, and those
    # at `now` in the order they were scheduled, which is their counter order;
    # an event is (ts, counter, scope, elem_id, action), and taking it calls
    # action(scope, elem_id, ts)
    heap: list[tuple] = []
    lane: deque[tuple] = deque()
    now = 0.0
    counter = 0

    def schedule(ts: float, scope: _Scope, elem_id: str, action: Callable) -> None:
        nonlocal counter
        if ts == now:
            lane.append((ts, counter, scope, elem_id, action))
        else:
            heappush(heap, (ts, counter, scope, elem_id, action))
        counter += 1

    def absorb(scope: _Scope, ts: float, fault: bool) -> None:
        scope.active -= 1
        if fault:
            scope.fault = True
            faulted.add(scope.inst)
        if scope.active:
            return
        parent = scope.parent
        if parent is None:
            inst = scope.inst
            status = "fault" if inst in faulted else "ok"
            emit(new(EventRecord, (ts, "processEnd", process, inst, None, process, None,
                                   None, status, ts)))
        elif scope.fault:
            absorb(parent, ts, fault=True)
        else:
            move(parent, scope.elem_id, ts)

    def move(scope: _Scope, elem_id: str, ts: float) -> None:
        flows = scope.level.outgoing.get(elem_id, ())
        if not flows:
            # dead end that is not an end event: token is lost
            absorb(scope, ts, fault=False)
            return
        scope.active += len(flows) - 1
        for f in flows:
            schedule(ts, scope, f.target, enter)

    def enter(scope: _Scope, elem_id: str, ts: float) -> None:
        level = scope.level
        activity = level.activities.get(elem_id)
        if activity is not None:
            run_activity(scope, activity, ts)
            return
        kind = level.elements[elem_id].kind
        if kind == "exclusiveGateway":
            flows = level.outgoing[elem_id]
            chosen = _choose(flows, cfg.branch_probs.get(elem_id), rng)
            if len(flows) > 1:
                emit(new(EventRecord, (ts, "gatewayTaken", process, scope.inst, None, chosen.id,
                                       None, None, None, None)))
            schedule(ts, scope, chosen.target, enter)
        elif kind == "parallelGateway":
            incoming = level.incoming_count.get(elem_id, 0)
            if incoming > 1:
                key = (scope, elem_id)
                arrived = join_arrivals.get(key, 0) + 1
                if arrived < incoming:
                    join_arrivals[key] = arrived
                    return  # token waits at the join
                del join_arrivals[key]
                scope.active -= incoming - 1
            move(scope, elem_id, ts)
        elif kind == "startEvent":
            move(scope, elem_id, ts)
        elif kind == "endEvent":
            absorb(scope, ts, fault=False)
        else:  # subProcess: the token waits in a run of its own of the inner level
            inner = _Scope(scope.inst, level.inner[elem_id], scope, elem_id)
            schedule(ts, inner, inner.level.start_id, enter)

    def run_activity(scope: _Scope, activity: tuple, ts: float) -> None:
        uid, elem_id, concept, invokes, sample, fault_p = activity
        inst = scope.inst
        emit(new(EventRecord, (ts, "activityStart", process, inst, uid, elem_id, concept, None,
                               None, None)))
        total = 0.0
        for service, sample_invoke in invokes:
            d = sample_invoke(rng)
            total += d
            emit(new(EventRecord, (ts + total, "serviceInvoke", process, inst, uid, elem_id,
                                   concept, service, "ok", d)))
        if sample is not None:
            total = sample(rng)
        status = "fault" if fault_p > 0.0 and rng.random() < fault_p else "ok"
        end = ts + total
        emit(new(EventRecord, (end, "activityEnd", process, inst, uid, elem_id, concept, None,
                               status, total)))
        schedule(end, scope, elem_id, move if status == "ok" else fail)

    def fail(scope: _Scope, elem_id: str, ts: float) -> None:
        absorb(scope, ts, fault=True)

    roots = [_Scope(inst, levels[()], None, None) for inst in range(1, cfg.instance_count + 1)]
    for root in roots:
        emit(new(EventRecord, (0.0, "processStart", process, root.inst, None, process, None,
                               None, "ok", None)))
        schedule(0.0, root, root.level.start_id, enter)

    while lane or heap:
        # the head that sorts first by (ts, counter); the counter is unique
        if lane and not (heap and heap[0] < lane[0]):
            ts, _, scope, elem_id, action = lane.popleft()
        else:
            ts, _, scope, elem_id, action = heappop(heap)
            now = ts
        action(scope, elem_id, ts)
    # break the handlers' reference cycle, which holds the records through emit
    del schedule, absorb, move, enter, run_activity, fail

    # an instance whose tokens are not all spent has some parked at a join
    unended = [root.inst for root in roots if root.active]
    stuck = {inst for inst in unended if inst not in faulted}
    if stuck:
        waiting: dict[tuple[str, str], set[int]] = {}
        for scope, elem_id in join_arrivals:
            if scope.inst in stuck:
                waiting.setdefault((scope.level.where, elem_id), set()).add(scope.inst)
        raise ModelError("deadlock: " + "; ".join(
            f"join {elem_id!r} of {where} never satisfied for instance(s) "
            + ", ".join(str(i) for i in sorted(insts))
            for (where, elem_id), insts in sorted(waiting.items())))
    if unended:
        # sibling branches of a faulted instance may be parked at a join;
        # close the instance at its last observed time
        last_ts = dict.fromkeys(unended, 0.0)
        for record in records:
            if record.instance in last_ts and record.ts_ms > last_ts[record.instance]:
                last_ts[record.instance] = record.ts_ms
        for inst, ts in last_ts.items():
            emit(new(EventRecord, (ts, "processEnd", process, inst, None, process, None, None,
                                   "fault", ts)))

    # the sort is stable, so events of one timestamp keep their emission order;
    # a sort on whole records would order them by kind
    records.sort(key=itemgetter(0))
    # the last record is the latest, and no duration exceeds its record's time
    if records[-1].ts_ms == math.inf:
        raise ConfigError("the clock overflows: the durations drawn add up past the largest float")
    return records


def _choose(flows: list[SequenceFlow], probs: dict[str, float] | None,
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


def _activity(elem: BpmnElement, rows: dict, cfg: SimulationConfig) -> tuple:
    """What each run of activity ``elem`` reads: its uid, id and concept;
    the service and duration sampler of each endpoint; when it has none, the
    default profile's sampler, or None; and its fault probability."""
    uid = elem.concept_uid
    row = rows.get(uid) if uid else None
    invokes = tuple((ep.service, _profile_for(ep.profile, cfg).sample)
                    for ep in (row.endpoints if row is not None else ()))
    sample = None
    if not invokes and cfg.default_profile is not None:
        sample = cfg.profiles[cfg.default_profile].sample
    return (uid, elem.id, row.concept if row else None, invokes, sample,
            cfg.fault_probs.get(uid or elem.id, 0.0))


def _profile_for(name: str | None, cfg: SimulationConfig) -> DurationProfile:
    if name is None:
        name = cfg.default_profile
    if name is None:
        raise ConfigError("endpoint has no duration profile and no default is set")
    profile = cfg.profiles.get(name)
    if profile is None:
        raise ConfigError(f"missing duration profile {name!r}")
    return profile


def _check_probs(levels: dict[tuple[str, ...], _Level], cfg: SimulationConfig,
                 process: str) -> None:
    """Reject a ``branch_probs`` or ``fault_probs`` entry that does not fit the model."""
    gateways = {eid: level for level in levels.values()
                for eid, e in level.elements.items() if e.kind == "exclusiveGateway"}
    for gw, probs in cfg.branch_probs.items():
        level = gateways.get(gw)
        if level is None:
            raise ConfigError(
                f"field 'branch_probs.{gw}' names no exclusive gateway of process {process!r}")
        flow_ids = {f.id for f in level.outgoing.get(gw, [])}
        unknown = set(probs) - flow_ids
        if unknown:
            raise ConfigError(
                f"branch probabilities for {gw!r} name unknown flows: "
                + ", ".join(sorted(unknown)))
        missing = flow_ids - set(probs)
        if missing:
            raise ConfigError(
                f"branch probabilities for {gw!r} miss flows: " + ", ".join(sorted(missing)))
    # an activity's fault probability is keyed as _activity looks it up
    activities = {e.concept_uid or e.id for level in levels.values()
                  for e in level.elements.values() if e.kind not in _CONTROL_KINDS}
    for key in cfg.fault_probs:
        if key not in activities:
            raise ConfigError(
                f"field 'fault_probs.{key}' names no activity of process {process!r}")


def _check_exits(levels: dict[tuple[str, ...], _Level], cfg: SimulationConfig) -> None:
    """Reject a level where a token can be trapped in a loop.

    Every element that the start reaches through flows of nonzero
    probability must end its token: be a terminal (an end event, an
    element with no outgoing flow, or an activity that can fault; a
    subprocess can fault when an activity inside it can), or send it to an
    element that ends it; a fork, which sends a token down each of its
    flows, must send each one to such an element. The loop is the model's
    fault when it traps a token with no probability set, and the
    configuration's otherwise.
    """
    # every level with an activity that can fault, and each level around it
    faulting = {path[:i] for path, level in levels.items()
                if any(_can_fault(e, cfg) for e in level.elements.values())
                for i in range(1, len(path) + 1)}
    for path, level in levels.items():
        trap = _trap(level, path, cfg, faulting)
        if trap is not None:
            bare = _trap(level, path, SimulationConfig(), set()) is not None
            raise (ModelError if bare else ConfigError)(f"{level.where}: {trap}")


def _can_fault(e: BpmnElement, cfg: SimulationConfig) -> bool:
    return e.kind not in _CONTROL_KINDS and cfg.fault_probs.get(e.concept_uid or e.id, 0.0) > 0.0


def _trap(level: _Level, path: tuple[str, ...], cfg: SimulationConfig,
          faulting: set[tuple[str, ...]]) -> str | None:
    """What traps a token of ``level`` under ``cfg``, where the
    subprocesses at ``faulting`` can fault; None if nothing does."""
    nexts: dict[str, list[str]] = {}
    before: dict[str, set[str]] = {}
    # how many of its successors must end a token before an element ends it:
    # one for an exclusive gateway, each of them for any other element
    need: dict[str, int] = {}
    ends = set()
    for eid, elem in level.elements.items():
        flows = level.outgoing.get(eid, [])
        probs = cfg.branch_probs.get(eid) if elem.kind == "exclusiveGateway" else None
        if probs is not None and len(flows) > 1:
            flows = [f for f in flows if probs[f.id] > 0.0]
        nexts[eid] = [f.target for f in flows]
        for f in flows:
            before.setdefault(f.target, set()).add(eid)
        need[eid] = 1 if elem.kind == "exclusiveGateway" else len(set(nexts[eid]))
        if not flows or elem.kind == "endEvent" or _can_fault(elem, cfg) \
                or elem.kind == "subProcess" and path + (eid,) in faulting:
            ends.add(eid)
    stack = list(ends)
    while stack:
        for eid in before.get(stack.pop(), ()):
            if eid not in ends:
                need[eid] -= 1
                if not need[eid]:
                    ends.add(eid)
                    stack.append(eid)
    trapped = reachable([level.start_id], nexts) - ends
    if not trapped:
        return None
    # an element is trapped when a successor it needs is: walk to a loop
    eid, seen = next(e for e in level.elements if e in trapped), {}
    while eid not in seen:
        seen[eid] = len(seen)
        eid = next(t for t in nexts[eid] if t in trapped)
    loop = list(seen)[seen[eid]:]
    fork = next((e for e in loop if len(nexts[e]) > 1
                 and level.elements[e].kind != "exclusiveGateway"), None)
    if fork is not None:
        back = next(t for t in nexts[fork] if t in trapped)
        return (f"element {fork!r} sends a token down each of its flows, and the one to "
                f"{back!r} never reaches an end event, a dead end or a fault")
    return (f"element {eid!r} is on a loop that no flow of nonzero probability leaves "
            "for an end event, a dead end or a fault")
