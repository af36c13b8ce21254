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
always yields a byte-identical event log.

Log format: JSON Lines. The first line is a header
``{"log_version": 1, "seed": ..., "rng": "python-mt19937"}``; each
following line is one event record. For ``gatewayTaken`` records
``element_id`` names the sequence flow that was taken.

A record is an immutable :class:`EventRecord` tuple of the fields after
``seq`` in log order; a field that does not apply is ``None``. ``seq`` is
not part of the record: it is the 1-based position of the record's line
in the log, written by :func:`render_log`.

Each record line is exactly the bytes ``json.dumps`` gives for an object
of ``seq`` and the record's fields in ``_FIELD_ORDER``, with every ``None``
field omitted: ``", "`` and ``": "`` separators, ASCII-only string escapes,
``repr`` for ints and finite floats, and ``Infinity``/``-Infinity``/
``NaN`` for the others. :func:`render_log` writes those lines without
building the objects.

Reading contract: :func:`read_log` reads a log, and :func:`decode_values`
one line. Both read a line in the canonical form, the line
:func:`render_log` writes when no string needs an escape, with one pattern
(``_CANONICAL``, compiled on the first line read), and every other line
with ``json.loads`` and its checks. On a line in the canonical form both
give the same values, because ``json.loads`` converts a number's text with
the same ``int`` or ``float``; for a record line those values equal its
record.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import deque, namedtuple
from heapq import heappop, heappush
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .diagnostics import (DsprocError, JSONError, json_check, json_field, json_members,
                          parse_json, sum_in_order)

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable, Collection, Iterable, Iterator

    from .bpmn import BpmnElement, BpmnModel, SequenceFlow
    from .deploy import DeploymentManifest

RNG_ID = "python-mt19937"
LOG_VERSION = 1

_NUMBER = (int, float)
# every field of a record line in log order, with the types a line may
# carry for it; the first five are required
_FIELD_TYPES = {"seq": int, "ts_ms": _NUMBER, "kind": str, "process": str, "instance": int,
                "element_uid": str, "element_id": str, "concept": str, "service": str,
                "status": str, "duration_ms": _NUMBER}
_FIELD_ORDER = tuple(_FIELD_TYPES)
_REQUIRED = frozenset(_FIELD_ORDER[:5])
# every exact-type tuple a decoded record may have; json.loads yields exact
# int/float/str/bool, so this is the isinstance check with bool excluded
_VALID_TYPES = frozenset(itertools.product(*(
    (types if isinstance(types, tuple) else (types,))
    + (() if name in _REQUIRED else (type(None),))
    for name, types in _FIELD_TYPES.items())))
# one event; ``seq`` is its line's position in the log, not a field
EventRecord = namedtuple("EventRecord", _FIELD_ORDER[1:], defaults=(None,) * 6)

# The canonical form of a record line. Strings hold no backslash and no
# control character. Numbers follow the JSON grammar with bounded digit
# counts: a float's repr has at most 16 integer, 20 fraction and 3 exponent
# digits, and an int of at most 20 digits is far below Python's limit on
# int(text). A line outside these bounds is still read, by json.loads.
# An optional part is written (?:part|), not (?:part)?: the same matches,
# which the re module finds about a fifth faster.
_INT = r"-?(?:0|[1-9][0-9]{0,19})"
_FLOAT = _INT + r"(?:\.[0-9]{1,20}(?:[eE][-+]?[0-9]{1,3}|)|[eE][-+]?[0-9]{1,3})"
_NUMBER_RE = f"(?:({_FLOAT})|({_INT}))"  # a float's text in one group, an int's in the next
_STRING_RE = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_TEXT = (
    f'{{"seq": (?:{_INT}), "ts_ms": {_NUMBER_RE}, "kind": {_STRING_RE}, '
    f'"process": {_STRING_RE}, "instance": ({_INT})'
    + "".join(f'(?:, "{name}": {_STRING_RE}|)' for name in _FIELD_ORDER[5:10])
    + f'(?:, "duration_ms": {_NUMBER_RE}|)}}\n?')
_CANONICAL = None  # the compiled pattern, once a line has been read
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_number(value: int | float) -> str:
    text = repr(value)
    return _NON_FINITE.get(text, text)


class SimulationError(DsprocError):
    pass


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
        def number(key: str) -> float:
            return float(json_field(obj, key, "number", where, 0.0))
        return cls(kind=json_field(obj, "kind", "string", where), value=number("value"),
                   low=number("low"), high=number("high"), mean=number("mean"),
                   stddev=number("stddev"))


class SimulationConfig:
    __slots__ = ("instance_count", "seed", "profiles", "branch_probs", "fault_probs",
                 "default_profile")

    def __init__(self, instance_count: int = 1, seed: int = 0,
                 profiles: dict[str, DurationProfile] | None = None,
                 branch_probs: dict[str, dict[str, float]] | None = None,
                 fault_probs: dict[str, float] | None = None,
                 default_profile: str | None = None):
        self.instance_count = instance_count
        self.seed = seed
        self.profiles = {} if profiles is None else profiles
        self.branch_probs = {} if branch_probs is None else branch_probs
        self.fault_probs = {} if fault_probs is None else fault_probs
        self.default_profile = default_profile

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


def log_header(cfg: SimulationConfig) -> str:
    return json.dumps({"log_version": LOG_VERSION, "seed": cfg.seed, "rng": RNG_ID})


def _fullmatch():
    """The canonical pattern's ``fullmatch``; the pattern is compiled on first use."""
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = re.compile(_CANONICAL_TEXT)
    return _CANONICAL.fullmatch


def _values(groups: tuple) -> tuple:
    """A record's values from the groups of its canonical line."""
    ts, ts_int, kind, process, instance, uid, element_id, concept, service, status, \
        duration, duration_int = groups
    return (float(ts) if ts is not None else int(ts_int), kind, process,
            int(instance), uid, element_id, concept, service, status,
            float(duration) if duration is not None
            else None if duration_int is None else int(duration_int))


def decode_values(line: str) -> dict | tuple:
    """Decode one log line: the header as a dict, any other line as the
    values of its fields after ``seq`` in log order (``None`` for an absent
    one), a tuple equal to its :class:`EventRecord`. ``seq`` is checked but
    not returned.

    A line that is neither (not JSON, not an object, a required field
    missing, a field of the wrong type, an unsupported log version) raises
    :class:`DsprocError`. See the module docstring for the two routes.
    """
    match = _fullmatch()(line)
    if match is None:
        return _decode_json(line)
    return _values(match.groups())


def _decode_json(line: str) -> dict | tuple:
    """:func:`decode_values` for any line, with a single ``json.loads``."""
    try:
        doc = parse_json(line)
    except JSONError as exc:
        raise DsprocError(f"malformed record: {exc.reason}") from None
    if not isinstance(doc, dict):
        raise DsprocError("malformed record: not a JSON object")
    if "log_version" in doc:
        if doc["log_version"] != LOG_VERSION:
            raise DsprocError(f"unsupported log version {doc['log_version']!r}")
        return doc
    values = tuple(map(doc.get, _FIELD_ORDER))
    if tuple(map(type, values)) not in _VALID_TYPES:
        for (name, types), value in zip(_FIELD_TYPES.items(), values):
            if value is None:
                if name in _REQUIRED:
                    raise DsprocError(f"malformed record: {name!r} missing")
            elif value.__class__ is bool or not isinstance(value, types):
                raise DsprocError(f"malformed record: {name!r} has the wrong type")
    return values[1:]


def read_log(lines: Iterable[str], kinds: Collection[str]) -> Iterator[tuple[int, dict | tuple]]:
    """``(line_no, values)`` for each line of ``lines`` that is not blank,
    numbered from 1, with the values :func:`decode_values` gives; except
    that a record line in the canonical form whose kind is not in ``kinds``
    has its numbers, ``ts_ms``, ``instance`` and ``duration_ms``, as ``None``.

    ``lines`` is read once, one line at a time. A line that does not decode
    and is not blank raises :class:`DsprocError`, prefixed ``line N: ``.
    """
    fullmatch = _fullmatch()
    for line_no, line in enumerate(lines, 1):
        match = fullmatch(line)
        if match is None:
            try:
                values = _decode_json(line)
            except DsprocError as exc:
                if not line.strip():
                    continue
                raise DsprocError(f"line {line_no}: {exc}") from None
        else:
            groups = match.groups()
            if groups[2] in kinds:
                values = _values(groups)
            else:
                _, _, kind, process, _, uid, element_id, concept, service, status, _, _ = groups
                values = (None, kind, process, None, uid, element_id, concept, service, status,
                          None)
        yield line_no, values


def render_log(records: Iterable[EventRecord], cfg: SimulationConfig) -> str:
    """The log: its header, then one line per record, numbered from 1 by
    ``seq``; see the module docstring for their bytes."""
    lines = [log_header(cfg)]
    append = lines.append
    # the fixed text of a line from ts_ms to instance, and from instance to
    # duration_ms, for each combination of the fields it is made of
    fragments: dict[tuple, tuple[str, str]] = {}
    # the last ts_ms and duration_ms written, and their text: a nonzero number
    # of the same type and value has the same text (zeros differ by sign)
    last_ts = last_duration = None
    ts_text = duration_text = ""
    for seq, (ts, kind, process, instance, uid, element_id, concept, service, status,
              duration) in enumerate(records, 1):
        key = (kind, process, uid, element_id, concept, service, status)
        fragment = fragments.get(key)
        if fragment is None:
            fragment = fragments[key] = (
                f', "kind": {_json_str(kind)}, "process": {_json_str(process)}, "instance": ',
                "".join(f', "{name}": {_json_str(value)}'
                        for name, value in zip(_FIELD_ORDER[5:10], key[2:]) if value is not None))
        middle, tail = fragment
        if ts != last_ts or not ts or ts.__class__ is not last_ts.__class__:
            ts_text = _json_number(ts)
            last_ts = ts
        if duration is None:
            append(f'{{"seq": {seq!r}, "ts_ms": {ts_text}{middle}{instance!r}{tail}}}')
        else:
            if duration != last_duration or not duration \
                    or duration.__class__ is not last_duration.__class__:
                duration_text = _json_number(duration)
                last_duration = duration
            append(f'{{"seq": {seq!r}, "ts_ms": {ts_text}{middle}{instance!r}{tail}'
                   f', "duration_ms": {duration_text}}}')
    append("")  # the trailing newline, without a second copy of the log
    return "\n".join(lines)


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
            raise SimulationError(f"{where}: expected exactly one startEvent")
        self.start_id = starts[0].id
        self.activities: dict[str, tuple] = {}  # each activity's _activity, from its first run


# ---------------------------------------------------------------------------
# simulation


def simulate(model: BpmnModel, manifest: DeploymentManifest,
             cfg: SimulationConfig) -> list[EventRecord]:
    cfg.validate()
    levels = {path: _Level(elements, flows, "/".join((model.process_id,) + path))
              for path, (elements, flows) in model.levels.items()}
    _check_probs(levels, cfg, model.process_id)
    _check_exits(levels, cfg)
    rows = {r.uid: r for r in manifest.rows}
    rng = random.Random(cfg.seed)
    process = model.process_id
    new = tuple.__new__  # an EventRecord from its ten fields, without a Python-level call

    records: list[EventRecord] = []
    emit = records.append
    ended: set[int] = set()
    faulted: set[int] = set()
    ctx_active: dict[tuple[int, tuple[str, ...]], int] = {}
    ctx_fault: dict[tuple[int, tuple[str, ...]], bool] = {}
    join_arrivals: dict[tuple[int, tuple[str, ...], str], int] = {}

    # the queue: the events after the current time `now` in a heap, and those
    # at `now` in the order they were scheduled, which is their counter order;
    # an event is (ts, counter, inst, path, elem_id, action), and taking it
    # calls action(inst, path, elem_id, ts)
    heap: list[tuple] = []
    lane: deque[tuple] = deque()
    now = 0.0
    counter = 0

    def schedule(ts: float, inst: int, path: tuple[str, ...], elem_id: str,
                 action: Callable) -> None:
        nonlocal counter
        if ts == now:
            lane.append((ts, counter, inst, path, elem_id, action))
        else:
            heappush(heap, (ts, counter, inst, path, elem_id, action))
        counter += 1

    def absorb(inst: int, path: tuple[str, ...], ts: float, fault: bool) -> None:
        key = (inst, path)
        ctx_active[key] -= 1
        if fault:
            ctx_fault[key] = True
            faulted.add(inst)
        if ctx_active[key] > 0:
            return
        if path == ():
            if inst not in ended:
                ended.add(inst)
                status = "fault" if inst in faulted else "ok"
                emit(new(EventRecord, (ts, "processEnd", process, inst, None, process, None,
                                       None, status, ts)))
            return
        # inner level drained: resume (or kill) the suspended outer token
        sub_fault = ctx_fault.pop(key, False)
        del ctx_active[key]
        parent = path[:-1]
        if sub_fault:
            absorb(inst, parent, ts, fault=True)
        else:
            move(inst, parent, path[-1], ts)

    def move(inst: int, path: tuple[str, ...], elem_id: str, ts: float) -> None:
        flows = levels[path].outgoing.get(elem_id, ())
        if not flows:
            # dead end that is not an end event: token is lost
            absorb(inst, path, ts, fault=False)
            return
        if len(flows) > 1:
            ctx_active[(inst, path)] += len(flows) - 1
        for f in flows:
            schedule(ts, inst, path, f.target, enter)

    def enter(inst: int, path: tuple[str, ...], elem_id: str, ts: float) -> None:
        level = levels[path]
        activity = level.activities.get(elem_id)
        if activity is not None:
            run_activity(inst, path, activity, ts)
            return
        elem = level.elements.get(elem_id)
        if elem is None:
            raise SimulationError(f"flow targets unknown element {elem_id!r}")
        kind = elem.kind
        if kind not in _CONTROL_KINDS:
            activity = level.activities[elem_id] = _activity(elem, rows, cfg)
            run_activity(inst, path, activity, ts)
        elif kind == "exclusiveGateway":
            flows = level.outgoing.get(elem_id)
            if not flows:
                raise SimulationError(f"gateway {elem_id!r} has no outgoing flow")
            chosen = _choose(flows, cfg.branch_probs.get(elem_id), rng)
            if len(flows) > 1:
                emit(new(EventRecord, (ts, "gatewayTaken", process, inst, None, chosen.id, None,
                                       None, None, None)))
            schedule(ts, inst, path, chosen.target, enter)
        elif kind == "parallelGateway":
            incoming = level.incoming_count.get(elem_id, 0)
            if incoming > 1:
                key = (inst, path, elem_id)
                arrived = join_arrivals[key] = join_arrivals.get(key, 0) + 1
                if arrived < incoming:
                    return  # token waits at the join
                join_arrivals[key] = 0
                ctx_active[(inst, path)] -= incoming - 1
            move(inst, path, elem_id, ts)
        elif kind == "startEvent":
            move(inst, path, elem_id, ts)
        elif kind == "endEvent":
            absorb(inst, path, ts, fault=False)
        else:  # subProcess
            inner = path + (elem_id,)
            key = (inst, inner)
            ctx_active[key] = ctx_active.get(key, 0) + 1
            ctx_fault.setdefault(key, False)
            schedule(ts, inst, inner, levels[inner].start_id, enter)

    def run_activity(inst: int, path: tuple[str, ...], activity: tuple, ts: float) -> None:
        uid, elem_id, concept, invokes, sample, fault_p = activity
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
        schedule(end, inst, path, elem_id, move if status == "ok" else fail)

    def fail(inst: int, path: tuple[str, ...], elem_id: str, ts: float) -> None:
        absorb(inst, path, ts, fault=True)

    for inst in range(1, cfg.instance_count + 1):
        ctx_active[(inst, ())] = 1
        emit(new(EventRecord, (0.0, "processStart", process, inst, None, process, None, None,
                               "ok", None)))
        schedule(0.0, inst, (), levels[()].start_id, enter)

    while lane or heap:
        # the head that sorts first by (ts, counter); the counter is unique
        if lane and not (heap and heap[0] < lane[0]):
            ts, _, inst, path, elem_id, action = lane.popleft()
        else:
            ts, _, inst, path, elem_id, action = heappop(heap)
            now = ts
        if inst not in ended:
            action(inst, path, elem_id, ts)

    unended = [inst for inst in range(1, cfg.instance_count + 1) if inst not in ended]
    stuck = [inst for inst in unended if inst not in faulted]
    if stuck:
        raise SimulationError(
            "deadlock: join never satisfied for instance(s) "
            + ", ".join(str(i) for i in stuck))
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
        raise SimulationError("endpoint has no duration profile and no default is set")
    profile = cfg.profiles.get(name)
    if profile is None:
        raise SimulationError(f"missing duration profile {name!r}")
    return profile


def _check_probs(levels: dict[tuple[str, ...], _Level], cfg: SimulationConfig,
                 process: str) -> None:
    """Reject a ``branch_probs`` or ``fault_probs`` entry that does not fit the model."""
    gateways = {eid: level for level in levels.values()
                for eid, e in level.elements.items() if e.kind == "exclusiveGateway"}
    for gw, probs in cfg.branch_probs.items():
        level = gateways.get(gw)
        if level is None:
            raise SimulationError(
                f"field 'branch_probs.{gw}' names no exclusive gateway of process {process!r}")
        flow_ids = {f.id for f in level.outgoing.get(gw, [])}
        unknown = set(probs) - flow_ids
        if unknown:
            raise SimulationError(
                f"branch probabilities for {gw!r} name unknown flows: "
                + ", ".join(sorted(unknown)))
        missing = flow_ids - set(probs)
        if missing:
            raise SimulationError(
                f"branch probabilities for {gw!r} miss flows: " + ", ".join(sorted(missing)))
    # an activity's fault probability is keyed as _run_activity looks it up
    activities = {e.concept_uid or e.id for level in levels.values()
                  for e in level.elements.values() if e.kind not in _CONTROL_KINDS}
    for key in cfg.fault_probs:
        if key not in activities:
            raise SimulationError(
                f"field 'fault_probs.{key}' names no activity of process {process!r}")


def _check_exits(levels: dict[tuple[str, ...], _Level], cfg: SimulationConfig) -> None:
    """Reject a level where a token can be trapped in a loop.

    Every element that the start reaches through flows of nonzero
    probability must reach, the same way, a terminal: an end event, an
    element with no outgoing flow, or an activity that can fault (a
    subprocess can fault when an activity inside it can).
    """
    def can_fault(e: BpmnElement) -> bool:
        return (e.kind not in _CONTROL_KINDS
                and cfg.fault_probs.get(e.concept_uid or e.id, 0.0) > 0.0)

    # every level with an activity that can fault, and each level around it
    faulting = {path[:i] for path, level in levels.items()
                if any(map(can_fault, level.elements.values()))
                for i in range(1, len(path) + 1)}
    for path, level in levels.items():
        nexts: dict[str, list[str]] = {}
        before: dict[str, list[str]] = {}
        exits = set()
        for eid, elem in level.elements.items():
            flows = level.outgoing.get(eid, [])
            probs = cfg.branch_probs.get(eid) if elem.kind == "exclusiveGateway" else None
            if probs is not None and len(flows) > 1:
                flows = [f for f in flows if probs[f.id] > 0.0]
            nexts[eid] = [f.target for f in flows]
            for f in flows:
                before.setdefault(f.target, []).append(eid)
                if f.target not in level.elements:  # fails at run time with its own error
                    exits.add(f.target)
            if not flows or elem.kind == "endEvent" or can_fault(elem) \
                    or elem.kind == "subProcess" and path + (eid,) in faulting:
                exits.add(eid)
        trapped = _closure({level.start_id}, nexts) - _closure(exits, before)
        if trapped:
            # every successor of a trapped element is trapped: walk to the loop
            eid, seen = next(e for e in level.elements if e in trapped), set()
            while eid not in seen:
                seen.add(eid)
                eid = next(t for t in nexts[eid] if t in trapped)
            raise SimulationError(
                f"{level.where}: element {eid!r} is on a loop that no flow of nonzero "
                "probability leaves for an end event, a dead end or a fault")


def _closure(seeds: set[str], edges: dict[str, list[str]]) -> set[str]:
    """``seeds`` and every node reachable from them along ``edges``."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for t in edges.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen
