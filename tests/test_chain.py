"""The whole chain, ``check``, ``gen``, ``bind``, ``run`` and ``monitor``,
run through ``cli.main`` on drawn worlds, each output checked against the
one before it by an oracle of its own; and one world pinned, byte for byte.
"""

import hashlib
import io
import json
import random
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from dsproc import cli, domain as dom, eventlog, process as proc
from dsproc.bpmn import BPMN_NS, DSML_NS
from dsproc.engine import SimulationConfig

from conftest import FIXTURES
from models import World, worlds

# the walkthrough's profiles; service i of a domain is bound to profile i % 3
PROFILES = {"fast": {"kind": "uniform", "low": 10, "high": 50},
            "medium": {"kind": "normal", "mean": 200, "stddev": 40},
            "slow": {"kind": "uniform", "low": 300, "high": 900}}
_decode_json = eventlog._decode_json


def _main(*argv) -> None:
    """Run one command through cli.main; it must exit 0 and print no error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    assert (code, err.getvalue()) == (0, ""), argv


def _header_only(line):
    """The json route, which must read no record line: monitor reads those by the pattern."""
    values = _decode_json(line)
    assert values.__class__ is dict, f"record line read by json.loads: {line}"
    return values


def _renumbered(log: bytes, rng: random.Random) -> bytes:
    """``log`` with its instances numbered in another order, and started in
    yet another: instance ``i`` becomes ``numbers[i - 1]``, its processStarts,
    all at ts_ms 0, are shuffled among themselves, and every seq is
    renumbered."""
    header, *lines = log.decode("utf-8").splitlines()
    docs = [json.loads(line) for line in lines]
    starts = [i for i, doc in enumerate(docs) if doc["kind"] == "processStart"]
    numbers = rng.sample(range(1, len(starts) + 1), len(starts))
    records = []
    for doc in docs:
        del doc["seq"]
        records.append(eventlog.EventRecord(**{**doc, "instance": numbers[doc["instance"] - 1]}))
    shuffled = [records[i] for i in starts]
    rng.shuffle(shuffled)
    for i, start in zip(starts, shuffled):
        records[i] = start
    rendered = eventlog.render_log(records, SimulationConfig())
    return (header + rendered[rendered.index("\n"):]).encode("utf-8")


def _tallies(report: dict) -> tuple[dict, dict]:
    """Each concept's count, faults, min_ms and max_ms (None without a
    sample), and each process's instances and faults, in ``report``."""
    return ({concept: (e["count"], e["faults"], e.get("min_ms"), e.get("max_ms"))
             for concept, e in report["concepts"].items()},
            {process: (e["instances"], e["faults"]) for process, e in report["processes"].items()})


def _concatenation(a: dict, b: dict) -> tuple[dict, dict]:
    """The tallies of the report of two logs one after the other, from the
    reports ``a`` and ``b`` of each: each concept's count and faults add up,
    and its min_ms and max_ms are the least and the greatest of either; each
    process's instances and faults add up."""
    def extreme(pick, x, y, key):
        values = [e[key] for e in (x, y) if key in e]
        return pick(values) if values else None
    concepts = {concept: (x["count"] + y["count"], x["faults"] + y["faults"],
                          extreme(min, x, y, "min_ms"), extreme(max, x, y, "max_ms"))
                for concept, x in a["concepts"].items() for y in [b["concepts"][concept]]}
    processes = {process: (x["instances"] + y["instances"], x["faults"] + y["faults"])
                 for process, x in a["processes"].items() for y in [b["processes"][process]]}
    return concepts, processes


def _activity_uids(xml: str) -> Counter:
    """The conceptRef uids of a BPMN text's service tasks, read by ElementTree."""
    return Counter(ref.get("uid") for task in ET.fromstring(xml).iter(f"{{{BPMN_NS}}}serviceTask")
                   for ref in task.iter(f"{{{DSML_NS}}}conceptRef"))


def _reach(body, node: str) -> set:
    """The nodes of ``body`` that a path of one or more flows leads to from ``node``."""
    seen, stack = set(), [f.target for f in body.flows if f.source == node]
    while stack:
        at = stack.pop()
        if at not in seen:
            seen.add(at)
            stack.extend(f.target for f in body.flows if f.source == at)
    return seen


def _bodies(world: World):
    """Each process and subprocess body of ``world``, with the node path it runs at."""
    stack = [(m.name, m.body) for m in world.processes]
    while stack:
        path, body = stack.pop()
        yield path, body
        stack.extend((f"{path}/{n.id}", world.domain.concept(n.concept).subprocess)
                     for n in body.concept_refs() if world.domain.concept(n.concept).subprocess)


def _token_faults(world: World, path_of: dict, records: list) -> list:
    """What the records of one log show against BPMN's token rules: an
    activity on no loop that starts twice in an instance, and one after a
    parallel join that starts before an activity of the join's branches
    has ended."""
    runs, first_start, last_end = Counter(), {}, {}  # by uid and instance
    for r in records:
        key = r.get("element_uid"), r.get("instance")
        if r.get("kind") == "activityStart":
            runs[key] += 1
            first_start.setdefault(key, r["ts_ms"])
        elif r.get("kind") == "activityEnd":
            last_end[key] = r["ts_ms"]
    # an activity may run twice in an instance when its node, or a subprocess
    # node around it, is on a loop
    loops = [f"{at}/{n.id}" for at, body in _bodies(world) for n in body.nodes
             if n.id in _reach(body, n.id)]

    def may_repeat(uid):
        return any(path_of[uid] == node or path_of[uid].startswith(node + "/") for node in loops)

    def under(path):  # the activities at node path and inside it
        return [uid for uid, at in path_of.items() if at == path or at.startswith(path + "/")]
    faults = [f"{path_of[uid]} starts {n} times in instance {i}" for (uid, i), n in runs.items()
              if n > 1 and not may_repeat(uid)]
    for at, body in _bodies(world):
        for join in {n.id for n in body.nodes if n.kind == "parallel"}:
            branches = [f.source for f in body.flows if f.target == join]
            if len(branches) < 2:  # a fork, not a join
                continue
            before = [u for b in branches for u in under(f"{at}/{b}") if not may_repeat(u)]
            later = [x for n in _reach(body, join) for x in under(f"{at}/{n}")]
            faults += [f"{path_of[x]} starts before {path_of[u]} ends in instance {i}"
                       for (u, i), ts in last_end.items() if u in before
                       for x in later if first_start.get((x, i), ts) < ts]
    return faults


def check_chain(work: Path, world: World, seed: int) -> None:
    """Run the chain on ``world`` in ``work`` and check each of its outputs.

    Process ``i`` runs ``10 + i`` instances; a third of its activities,
    chosen by ``seed`` after ``gen``, fault with probability 0.2. The logs,
    one after the other in ``events.jsonl``, are monitored together, and
    again followed by the logs of a second run.
    """
    d, names = world.domain, [m.name for m in world.processes]
    (work / "d.dsml").write_text(dom.serialize_domain(d), encoding="utf-8")
    for model in world.processes:
        (work / f"{model.name}.dsproc").write_text(proc.serialize_process(model),
                                                    encoding="utf-8")
    (work / "bindings.json").write_text(json.dumps({"bindings": {
        s.name: {"endpoint": f"sim://{s.name}", "profile": list(PROFILES)[i % 3]}
        for i, s in enumerate(d.services)}}), encoding="utf-8")
    _main("check", work / "d.dsml", *(work / f"{name}.dsproc" for name in names))
    store = ("--domain", work / "d.dsml", "--mappings", work / "mappings.json")
    outputs = [work / "mappings.json", *(work / f"{name}.bpmn" for name in names)]
    generated = []
    for _ in range(2):  # the second gen of each process changes no byte
        for name in names:
            _main("gen", work / f"{name}.dsproc", *store, "-o", work / f"{name}.bpmn")
        generated.append([path.read_bytes() for path in outputs])
    assert generated[0] == generated[1]

    store_doc = json.loads((work / "mappings.json").read_text(encoding="utf-8"))
    am = store_doc["am"]
    rng = random.Random(seed)
    logs = []
    for i, name in enumerate(names):
        uids = sorted(uid for uid, entry in am.items() if entry["process"] == name)
        assert _activity_uids((work / f"{name}.bpmn").read_text(encoding="utf-8")) == \
            Counter(uids)
        (work / f"{name}.sim.json").write_text(json.dumps({
            "instance_count": 10 + i, "seed": seed, "profiles": PROFILES,
            "fault_probs": {uid: 0.2 for uid in rng.sample(uids, len(uids) // 3)}}),
            encoding="utf-8")
        _main("bind", *store, "--bindings", work / "bindings.json", "--process", name,
              "-o", work / f"{name}.manifest.json")
        rows = json.loads((work / f"{name}.manifest.json").read_text(encoding="utf-8"))
        assert {uid: (row["concept"], row["services"])
                for uid, row in rows["activities"].items()} == \
            {uid: (am[uid]["concept"], list(d.concept(am[uid]["concept"]).service_refs))
             for uid in uids}
        for run in ("a", "b"):
            _main("run", work / f"{name}.bpmn", "--manifest", work / f"{name}.manifest.json",
                  "--sim", work / f"{name}.sim.json", "-o", work / f"{name}.{run}.jsonl")
        logs.append((work / f"{name}.a.jsonl").read_bytes())
        assert (work / f"{name}.b.jsonl").read_bytes() == logs[-1]

    (work / "events.jsonl").write_bytes(b"".join(logs))
    # the a logs, then the b logs: each b log repeats its a log
    (work / "ab.jsonl").write_bytes(b"".join(logs) * 2)
    # the same logs with each one's instances numbered, and started, in another order
    (work / "renumbered.jsonl").write_bytes(b"".join(
        _renumbered(log, rng) for log in logs))
    with mock.patch.object(eventlog, "_decode_json", _header_only):
        _main("monitor", work / "events.jsonl", *store, "--report", work / "report.json",
              "--alert-out", work / "alerts.jsonl")
        _main("monitor", work / "renumbered.jsonl", *store,
              "--report", work / "renumbered.report.json")
        _main("monitor", work / "ab.jsonl", *store, "--report", work / "ab.report.json")
    # no number of the report depends on how a log numbers its instances
    assert (work / "renumbered.report.json").read_bytes() == \
        (work / "report.json").read_bytes()
    report, ab_report = (json.loads((work / name).read_text(encoding="utf-8"))
                         for name in ("report.json", "ab.report.json"))
    # the report of the a logs, then the b logs, combines the report of each
    assert _tallies(ab_report) == _concatenation(report, report)
    assert {name: entry["instances"] for name, entry in report["processes"].items()} == \
        {name: 10 + i for i, name in enumerate(names)}
    counts = {entry["concept"]: [0, 0] for entry in am.values()}  # activityEnds, faults
    path_of = {uid: path for path, uid in store_doc["uids"].items()}
    for log in logs:
        records = [json.loads(line) for line in log.decode("utf-8").splitlines()]
        for record in records:
            if record.get("kind") == "activityEnd":
                tally = counts[am[record["element_uid"]]["concept"]]
                tally[0] += 1
                tally[1] += record["status"] == "fault"
        assert _token_faults(world, path_of, records) == []
    assert {concept: [entry["count"], entry["faults"]]
            for concept, entry in report["concepts"].items()} == counts


@settings(max_examples=20, deadline=None)
@given(worlds(), st.integers(0, 2**32 - 1))
def test_the_whole_chain_holds_on_drawn_worlds(world, seed):
    with tempfile.TemporaryDirectory() as work:
        check_chain(Path(work), world, seed)


# ---------------------------------------------------------------------------
# one world of the strategy, pinned: a subprocess concept, a parallel block,
# an exceptional flow, a loop, faults and alerting SLAs

WORLD = FIXTURES / "world"


def test_a_rich_world_is_pinned(tmp_path):
    d = dom.parse_domain((WORLD / "warehouse.dsml").read_text(encoding="utf-8"))
    world = World(d, tuple(proc.parse_process(path.read_text(encoding="utf-8"), d)
                           for path in sorted(WORLD.glob("*.dsproc"))))
    check_chain(tmp_path, world, 7)
    digests = dict(line.split()[::-1]
                   for line in (WORLD / "SHA256SUMS").read_text(encoding="utf-8").splitlines())
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
        (WORLD / "report.json").read_text(encoding="utf-8")
    report = json.loads((WORLD / "report.json").read_text(encoding="utf-8"))
    assert any(entry["faults"] for entry in report["concepts"].values())
