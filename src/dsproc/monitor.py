"""Concept-level monitoring: probes, SLA alerts and reports.

One probe exists per mapped concept; it collects the BPMS layer (activity
completions of every activity mapped to the concept, across all processes)
and the SOA layer (service invocations made by those activities). Events
whose element has no concept mapping land in a per-process technical
bucket, so enrichment-time additions are measured but never surface under
a concept. Ingestion reads a log one line at a time, so a log file is
never read whole.

The report gives each concept its count, faults, total, mean, min, max,
nearest-rank p95 and share of all activity time, with a count, total and
mean per model node and per service; each process gets its instance
statistics and its technical bucket. :func:`_stats` computes every one of
these numbers, and the mean that ``max_mean_duration`` alerts compare.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict, namedtuple

from .diagnostics import DsprocError, fits_a_float, sum_in_order
from .eventlog import read_log

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from .domain import Sla
    from .mappings import ActivityMappings, MappingStore

_SEVERITY_RANK = {"critical": 0, "warning": 1, "info": 2}

# one activity completion (``service`` None) or service invocation
Sample = namedtuple("Sample", "duration_ms status instance ts_ms uid service",
                    defaults=(None,))
# the kinds of record whose numbers ingest reads
_MEASURED = frozenset({"activityEnd", "serviceInvoke", "processStart", "processEnd"})


class ConceptProbe:
    """The BPMS samples (activity completions) and SOA samples (service
    invocations) of one concept, and the SLAs registered on it."""

    __slots__ = ("concept", "bpms", "soa", "slas")

    def __init__(self, concept: str):
        self.concept = concept
        self.bpms: list[Sample] = []
        self.soa: list[Sample] = []
        self.slas: dict[str, Sla] = {}


class InstanceRecord:
    __slots__ = ("start_ts", "end_ts", "status")

    def __init__(self, start_ts: float, end_ts: float | None = None,
                 status: str | None = None):
        self.start_ts = start_ts
        self.end_ts = end_ts
        self.status = status

    @property
    def duration_ms(self) -> float | None:
        if self.end_ts is None:
            return None
        return self.end_ts - self.start_ts


class ProcessProbe:
    """A process's instances, keyed by (log, instance number) because every
    log numbers its instances from 1, and its technical bucket."""

    __slots__ = ("process", "instances", "technical")

    def __init__(self, process: str):
        self.process = process
        self.instances: dict[tuple[int, int], InstanceRecord] = {}
        self.technical: list[Sample] = []


class ProbeSet:
    """Every probe of the logs ingested so far; ``logs`` counts their headers."""

    __slots__ = ("concepts", "processes", "logs")

    def __init__(self):
        self.concepts: dict[str, ConceptProbe] = {}
        self.processes: dict[str, ProcessProbe] = {}
        self.logs = 0


def ingest(lines: Iterable[str], am: ActivityMappings,
           probes: ProbeSet | None = None) -> ProbeSet:
    """Replay an event log (header line included) into a probe set.

    ``lines`` may be any iterable, an open file included; it is read once,
    line by line. Pass an existing ``probes`` to aggregate several logs,
    e.g. the same concept used by two processes accumulates into one probe.
    """
    probes = probes or ProbeSet()
    known_processes = {e.process for e in am.values()}
    concepts = probes.concepts
    for e in am.values():
        concepts.setdefault(e.concept, ConceptProbe(e.concept))
    # the sample lists of each mapped activity's concept
    bpms_of = {uid: concepts[e.concept].bpms for uid, e in am.items()}
    soa_of = {uid: concepts[e.concept].soa for uid, e in am.items()}
    header_seen = False
    pp = None  # the probe of the last record's process
    new = tuple.__new__  # a Sample from its six fields, without a Python-level call
    for line_no, values in read_log(lines, _MEASURED):
        if values.__class__ is dict:
            header_seen = True
            probes.logs += 1
            continue
        if not header_seen:
            raise DsprocError(f"line {line_no}: log header missing")
        ts, kind, process, instance, uid, _element_id, _concept, service, status, \
            duration = values
        if pp is None or process != pp.process:
            if known_processes and process not in known_processes:
                raise DsprocError(f"line {line_no}: unknown process {process!r}")
            pp = probes.processes.get(process)
            if pp is None:
                pp = probes.processes[process] = ProcessProbe(process)
        if kind == "serviceInvoke":
            samples = soa_of.get(uid)
            if samples is not None:
                samples.append(
                    new(Sample, (duration or 0.0, status or "ok", instance, ts, uid, service)))
        elif kind == "activityEnd":
            bpms_of.get(uid, pp.technical).append(
                new(Sample, (duration or 0.0, status or "ok", instance, ts, uid, None)))
        elif kind == "processStart":
            pp.instances[probes.logs, instance] = InstanceRecord(start_ts=ts)
        elif kind == "processEnd":
            rec = pp.instances.setdefault((probes.logs, instance), InstanceRecord(start_ts=0.0))
            rec.end_ts = ts
            rec.status = status or "ok"
        # the other kinds, activityStart and gatewayTaken, carry no aggregated measure
    return probes


# ---------------------------------------------------------------------------
# statistics


def _stats(durations: list[float], faults: int = 0) -> dict:
    """Count, faults and total of ``durations``; when there are any, also
    their mean, min, max and nearest-rank p95.

    The sum runs over the sorted durations, so a quantity computed here
    twice, e.g. a concept's mean in the report and in an alert, is the same
    float both times. A total past the largest float is an error, so no
    report or alert holds an infinity or the NaN of one.
    """
    durations = sorted(durations)
    n = len(durations)
    if not n:
        return {"count": 0, "faults": faults, "total_ms": 0.0}
    total = _sum(durations)
    return {"count": n, "faults": faults, "total_ms": total, "mean_ms": total / n,
            "min_ms": durations[0], "max_ms": durations[-1],
            "p95_ms": durations[max(1, math.ceil(0.95 * n)) - 1]}


def _sum(durations: Iterable[float]) -> float:
    """``sum_in_order(durations)``; DsprocError when it passes the largest float."""
    try:
        total = sum_in_order(durations)
        if fits_a_float(total):
            return total
    except OverflowError:  # an int sum past the largest float, and then a float added
        pass
    raise DsprocError("durations add up past the largest float")


def _faults(samples: Iterable) -> int:
    return sum(1 for s in samples if s.status == "fault")


# ---------------------------------------------------------------------------
# SLA registration and alerts


def register_sla(probes: ProbeSet, pairs: Iterable[tuple[str, Sla]]) -> ProbeSet:
    """Attach SLAs to concept probes; re-registration is idempotent."""
    for subject, sla in pairs:
        probe = probes.concepts.get(subject)
        if probe is None:
            raise DsprocError(f"cannot register SLA on unknown concept {subject!r}")
        probe.slas[sla.name] = sla
    return probes


def propagated_to_concepts(propagated: Iterable[tuple[str, Sla]],
                           am: ActivityMappings) -> list[tuple[str, Sla]]:
    """Reduce per-activity SLA propagation output to (concept, sla) pairs."""
    seen = {}
    for uid, sla in propagated:
        entry = am.get(uid)
        if entry is None:
            raise DsprocError(f"propagated SLA names unmapped activity {uid!r}")
        seen[(entry.concept, sla.name)] = (entry.concept, sla)
    return list(seen.values())


class Alert(namedtuple("Alert", "sla subject metric observed threshold severity "
                               "first_ts last_ts instances")):
    """An SLA violation: ``observed`` against ``threshold``, between the
    violating samples' ``first_ts`` and ``last_ts``, in ``instances``."""

    __slots__ = ()

    def to_json_line(self) -> str:
        return json.dumps({
            "sla": self.sla, "subject": self.subject, "metric": self.metric,
            "observed": self.observed, "threshold": self.threshold,
            "severity": self.severity, "first_ts": self.first_ts,
            "last_ts": self.last_ts, "instances": self.instances,
        })


def evaluate_alerts(probes: ProbeSet) -> list[Alert]:
    alerts: list[Alert] = []
    for concept in probes.concepts:
        probe = probes.concepts[concept]
        for sla in probe.slas.values():
            alert = _check_sla(probe, sla)
            if alert is not None:
                alerts.append(alert)
    alerts.sort(key=lambda a: (_SEVERITY_RANK.get(a.severity, 3), a.subject, a.sla))
    return alerts


def _check_sla(probe: ConceptProbe, sla: Sla) -> Alert | None:
    samples = probe.bpms
    if not samples:
        return None
    if sla.metric == "max_duration":
        threshold = sla.threshold_ms()
        violating = [s for s in samples if s.duration_ms > threshold]
        if not violating:
            return None
        return Alert(sla.name, probe.concept, sla.metric,
                     max(s.duration_ms for s in violating), threshold, sla.severity,
                     min(s.ts_ms for s in violating), max(s.ts_ms for s in violating),
                     sorted({s.instance for s in violating}))
    if sla.metric == "max_mean_duration":
        threshold = sla.threshold_ms()
        mean = _stats([s.duration_ms for s in samples])["mean_ms"]
        if mean <= threshold:
            return None
        return Alert(sla.name, probe.concept, sla.metric, mean, threshold,
                     sla.severity, min(s.ts_ms for s in samples),
                     max(s.ts_ms for s in samples), [])
    if sla.metric == "max_fault_rate":
        faulted = [s for s in samples if s.status == "fault"]
        rate = len(faulted) / len(samples)
        if rate <= sla.threshold:
            return None
        return Alert(sla.name, probe.concept, sla.metric, rate, sla.threshold,
                     sla.severity,
                     min((s.ts_ms for s in faulted), default=None),
                     max((s.ts_ms for s in faulted), default=None),
                     sorted({s.instance for s in faulted}))
    raise DsprocError(f"unknown SLA metric {sla.metric!r}")


# ---------------------------------------------------------------------------
# reporting


def build_report(probes: ProbeSet, store: MappingStore) -> dict:
    """Monitoring report keyed by the modelling-level node paths, not BPMN ids."""
    path_of = {uid: path for path, uid in store.uids.items()}
    uids_by_concept: dict[str, list[str]] = defaultdict(list)
    for uid, entry in store.am.items():
        uids_by_concept[entry.concept].append(uid)

    bpms = {concept: _stats([s.duration_ms for s in probe.bpms], _faults(probe.bpms))
            for concept, probe in probes.concepts.items()}
    technical = {process: _stats([s.duration_ms for s in pp.technical])
                 for process, pp in probes.processes.items()}
    # concepts first, then processes, each in ingest order: the order of the
    # additions fixes the last bits of every contribution_pct
    denom = _sum((_sum(s["total_ms"] for s in bpms.values()),
                  _sum(s["total_ms"] for s in technical.values())))

    def pct(total: float) -> float:
        return (total / denom * 100.0) if denom > 0 else 0.0

    def brief(durations: list[float]) -> dict:
        stats = _stats(durations)
        return {key: stats[key] for key in ("count", "total_ms", "mean_ms") if key in stats}

    concepts: dict = {}
    for concept in sorted(probes.concepts):
        probe = probes.concepts[concept]
        by_uid, by_service = defaultdict(list), defaultdict(list)
        for s in probe.bpms:
            by_uid[s.uid].append(s.duration_ms)
        for s in probe.soa:
            by_service[s.service].append(s.duration_ms)
        entry = dict(bpms[concept], contribution_pct=pct(bpms[concept]["total_ms"]))
        entry["nodes"] = {path_of.get(uid, uid): brief(by_uid.get(uid, []))
                          for uid in sorted(uids_by_concept.get(concept, []))}
        entry["services"] = {svc: brief(by_service.get(svc, []))
                             for svc in store.cm.get(concept, [])}
        concepts[concept] = entry

    processes: dict = {}
    for process in sorted(probes.processes):
        pp = probes.processes[process]
        finished = [r.duration_ms for r in pp.instances.values() if r.end_ts is not None]
        entry = _stats(finished, _faults(pp.instances.values()))
        del entry["count"], entry["total_ms"]
        entry["instances"] = len(pp.instances)
        tech = technical[process]
        entry["technical"] = {"count": tech["count"], "total_ms": tech["total_ms"],
                              "contribution_pct": pct(tech["total_ms"])}
        processes[process] = entry

    return {"domain": store.domain, "concepts": concepts, "processes": processes}


def render_report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_report_text(report: dict) -> str:
    lines = [f"domain: {report['domain']}", ""]
    header = f"{'concept':<24} {'count':>7} {'faults':>7} {'mean_ms':>12} {'contrib%':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for concept, entry in report["concepts"].items():
        mean = f"{entry['mean_ms']:.1f}" if "mean_ms" in entry else "-"
        lines.append(f"{concept:<24} {entry['count']:>7} {entry['faults']:>7} "
                     f"{mean:>12} {entry['contribution_pct']:>9.2f}")
    lines.append("")
    for process, entry in report["processes"].items():
        mean = f"{entry['mean_ms']:.1f}" if "mean_ms" in entry else "-"
        tech = entry["technical"]
        lines.append(f"process {process}: instances={entry['instances']} "
                     f"faults={entry['faults']} mean_ms={mean} "
                     f"technical_contrib%={tech['contribution_pct']:.2f}")
    return "\n".join(lines) + "\n"
