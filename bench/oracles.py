"""Output checks that recompute each expected result without dsproc.

Every function returns a list of failure messages; an empty list means the
output is correct. Only the standard library is used: XML through
ElementTree, logs and reports through ``json``.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from inputs import BPMN_NS, DSML_NS, SLAS, TIME_UNITS_MS, DomainSpec

PROBE_KINDS = frozenset(("processStart", "processEnd", "activityEnd", "serviceInvoke"))


def load_am(mappings_path: Path) -> Dict[str, dict]:
    return json.loads(mappings_path.read_text(encoding="utf-8"))["am"]


def check_uid_multiset(bpmn_path: Path, am: Dict[str, dict], process: str,
                       expected_concepts: Sequence[str]) -> List[str]:
    """Leaf conceptRefs in the BPMN equal the process's AM entries, and their
    concepts equal the leaf concepts the generator put into the model."""
    refs: Counter = Counter()
    for element in ET.parse(bpmn_path).getroot().iter():
        if element.tag == f"{{{BPMN_NS}}}subProcess":
            continue
        for ref in element.findall(f"{{{BPMN_NS}}}extensionElements/{{{DSML_NS}}}conceptRef"):
            refs[(ref.get("uid"), ref.get("concept"))] += 1
    mapped = Counter((uid, e["concept"]) for uid, e in am.items() if e["process"] == process)
    out = []
    if refs != mapped:
        out.append(f"{process}: BPMN concept refs differ from the AM "
                   f"({sum(refs.values())} refs, {sum(mapped.values())} AM entries)")
    if Counter(c for _uid, c in refs.elements()) != Counter(expected_concepts):
        out.append(f"{process}: BPMN concepts differ from the generated model's leaves")
    return out


def check_sync_output(exit_code: int, stdout: str, planted: Iterable[str]) -> List[str]:
    expected = sorted(f"technical addition: {t}" for t in planted)
    if exit_code != 0:
        return [f"sync exited {exit_code}"]
    if sorted(stdout.splitlines()) != expected:
        return ["sync did not report exactly the planted technical additions"]
    return []


def check_manifest(manifest_path: Path, am: Dict[str, dict], process: str,
                   d: DomainSpec) -> List[str]:
    """One row per mapped activity of the process, bound to every service."""
    rows = json.loads(manifest_path.read_text(encoding="utf-8"))["activities"]
    mapped = {uid: e["concept"] for uid, e in am.items() if e["process"] == process}
    if set(rows) != set(mapped):
        return [f"{process}: manifest has {len(rows)} rows for {len(mapped)} mapped activities"]
    for uid, row in rows.items():
        concept = d.concepts[mapped[uid]]
        endpoints = [(e["service"], e["endpoint"], e["profile"]) for e in row["endpoints"]]
        if (row["concept"] != concept.name or row["services"] != list(concept.services)
                or endpoints != [(s, f"sim://{s}", d.services[s]) for s in concept.services]):
            return [f"{process}: manifest row {uid} is not bound as the domain says"]
    return []


def log_events(log_paths: Iterable[Path]) -> Tuple[List[dict], int]:
    """Decoded event records of several logs, and the number of header lines."""
    events: List[dict] = []
    headers = 0
    for path in log_paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                if "log_version" in doc:
                    headers += 1
                else:
                    events.append(doc)
    return events, headers


def useful_line_ratio(events: List[dict], headers: int) -> float:
    """Share of decoded log lines whose kind feeds a monitoring probe."""
    return sum(1 for e in events if e["kind"] in PROBE_KINDS) / (len(events) + headers)


def _nearest_rank_p95(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.95 * len(ordered))) - 1]


def check_report(events: List[dict], report_path: Path, alerts_path: Path,
                 am: Dict[str, dict], d: DomainSpec,
                 instances: Dict[str, int]) -> List[str]:
    """Concept statistics, instance counts and alerts recomputed from the log."""
    durations: Dict[str, List[float]] = {e["concept"]: [] for e in am.values()}
    faults: Counter = Counter()
    starts: Counter = Counter()
    for e in events:
        if e["kind"] == "processStart":
            starts[e["process"]] += 1
        elif e["kind"] == "activityEnd" and e.get("element_uid") in am:
            concept = am[e["element_uid"]]["concept"]
            durations[concept].append(e["duration_ms"])
            faults[concept] += e["status"] == "fault"

    out: List[str] = []
    if dict(starts) != instances:
        out.append(f"log instance counts {dict(starts)} != requested {instances}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for process, n in instances.items():
        got = report["processes"].get(process, {}).get("instances")
        if got != n:
            out.append(f"report counts {got} instances of {process}, expected {n}")
    if set(report["concepts"]) != set(durations):
        out.append("report concepts differ from the mapped concepts")
        return out
    for concept, values in durations.items():
        entry = report["concepts"][concept]
        if entry["count"] != len(values) or entry["faults"] != faults[concept]:
            out.append(f"{concept}: count/faults {entry['count']}/{entry['faults']} "
                       f"!= {len(values)}/{faults[concept]}")
        elif values and not (math.isclose(entry["mean_ms"], math.fsum(values) / len(values),
                                          rel_tol=1e-9)
                             and entry["p95_ms"] == _nearest_rank_p95(values)):
            out.append(f"{concept}: mean or p95 differs from the log")

    expected = set()
    for concept, values in durations.items():
        sla = d.concepts[concept].sla
        if sla is None or not values:
            continue
        metric, threshold, unit, _severity = SLAS[sla]
        if metric == "max_duration":
            violated = max(values) > threshold * TIME_UNITS_MS[unit]
        elif metric == "max_mean_duration":
            violated = math.fsum(values) / len(values) > threshold * TIME_UNITS_MS[unit]
        else:
            violated = faults[concept] / len(values) > threshold
        if violated:
            expected.add((concept, sla))
    with open(alerts_path, encoding="utf-8") as fh:
        alerted = {(a["subject"], a["sla"]) for a in map(json.loads, fh)}
    if alerted != expected:
        out.append(f"alerts {sorted(alerted ^ expected)} differ from SLA violations in the log")
    return out
