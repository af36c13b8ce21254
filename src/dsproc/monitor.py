"""Concept-level monitoring: sample tables, SLA alerts and reports.

Ingestion replays a log into a :class:`ProbeSet` of plain tables. Each
mapped concept has a list of BPMS samples (the activity completions of
every activity mapped to it, across all processes) and of SOA samples (the
service invocations made by those activities). Events whose element has no
concept mapping land in a per-process technical bucket, so enrichment-time
additions are measured but never surface under a concept. Ingestion reads
a log one line at a time, so a log file is never read whole.

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


class ProbeSet:
    """The samples of an ingested log, in plain tables.

    ``bpms`` and ``soa`` map each mapped concept to its activity completions
    and its service invocations. ``instances`` maps each process to its
    instances, ``[start_ts, end_ts, status]`` keyed by (log, instance
    number) because every log numbers its instances from 1; ``end_ts`` and
    ``status`` are None until the instance ends. ``technical`` maps each
    process to its unmapped activity completions. ``logs`` counts the log
    headers read. Concepts are in mapping order and processes in the order
    the log first names them.
    """

    __slots__ = ("bpms", "soa", "instances", "technical", "logs")

    def __init__(self):
        self.bpms: dict[str, list[Sample]] = {}
        self.soa: dict[str, list[Sample]] = {}
        self.instances: dict[str, dict[tuple[int, int], list]] = {}
        self.technical: dict[str, list[Sample]] = {}
        self.logs = 0


def ingest(lines: Iterable[str], am: ActivityMappings) -> ProbeSet:
    """Replay an event log (header line included) into a probe set.

    ``lines`` may be any iterable, an open file included; it is read once,
    line by line. It may hold several logs, each after its own header: the
    same concept used by two processes accumulates into one sample list.
    """
    probes = ProbeSet()
    known_processes = {e.process for e in am.values()}
    for e in am.values():
        if e.concept not in probes.bpms:
            probes.bpms[e.concept], probes.soa[e.concept] = [], []
    # the sample lists of each mapped activity's concept
    bpms_of = {uid: probes.bpms[e.concept] for uid, e in am.items()}
    soa_of = {uid: probes.soa[e.concept] for uid, e in am.items()}
    header_seen = False
    last = None  # the last record's process, with its instances and technical bucket
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
        if process != last:
            if known_processes and process not in known_processes:
                raise DsprocError(f"line {line_no}: unknown process {process!r}")
            technical = probes.technical.get(process)
            if technical is None:
                technical = probes.technical[process] = []
                probes.instances[process] = {}
            instances = probes.instances[process]
            last = process
        if kind == "serviceInvoke":
            samples = soa_of.get(uid)
            if samples is not None:
                samples.append(
                    new(Sample, (duration or 0.0, status or "ok", instance, ts, uid, service)))
        elif kind == "activityEnd":
            bpms_of.get(uid, technical).append(
                new(Sample, (duration or 0.0, status or "ok", instance, ts, uid, None)))
        elif kind == "processStart":
            if (probes.logs, instance) in instances:
                raise DsprocError(f"line {line_no}: second processStart of instance {instance}")
            instances[probes.logs, instance] = [ts, None, None]
        elif kind == "processEnd":
            record = instances.get((probes.logs, instance))
            if record is None:
                raise DsprocError(f"line {line_no}: processEnd of instance {instance} has no "
                                  f"processStart before it")
            if record[1] is not None:
                raise DsprocError(f"line {line_no}: second processEnd of instance {instance}")
            if ts < record[0]:
                raise DsprocError(f"line {line_no}: processEnd of instance {instance} at "
                                  f"ts_ms {ts!r} precedes its start at ts_ms {record[0]!r}")
            record[1], record[2] = ts, status or "ok"
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


def _faults(statuses: Iterable[str | None]) -> int:
    return sum(1 for status in statuses if status == "fault")


# ---------------------------------------------------------------------------
# alerts


class Alert(namedtuple("Alert", "sla subject metric observed threshold severity "
                               "first_ts last_ts instances")):
    """An SLA violation: ``observed`` against ``threshold``, between the
    violating samples' ``first_ts`` and ``last_ts``, in ``instances``."""

    __slots__ = ()

    def to_json_line(self) -> str:
        return json.dumps(self._asdict())


def evaluate_alerts(probes: ProbeSet, propagated: Iterable[tuple[str, Sla]],
                    am: ActivityMappings) -> list[Alert]:
    """The alerts of the SLAs ``propagated`` to activities, as
    ``domain.propagate_sla`` gives them: each SLA is checked once per concept
    of its activities, on that concept's BPMS samples; by severity, then
    concept, then SLA name."""
    slas = {(am[uid].concept, sla.name): sla for uid, sla in propagated}
    alerts = [alert for (concept, _name), sla in slas.items()
              if (alert := _check_sla(concept, probes.bpms.get(concept, ()), sla)) is not None]
    alerts.sort(key=lambda a: (_SEVERITY_RANK.get(a.severity, 3), a.subject, a.sla))
    return alerts


def _check_sla(concept: str, samples: list[Sample], sla: Sla) -> Alert | None:
    if not samples:
        return None
    if sla.metric == "max_duration":
        threshold = sla.threshold_ms()
        violating = [s for s in samples if s.duration_ms > threshold]
        if not violating:
            return None
        return Alert(sla.name, concept, sla.metric,
                     max(s.duration_ms for s in violating), threshold, sla.severity,
                     min(s.ts_ms for s in violating), max(s.ts_ms for s in violating),
                     sorted({s.instance for s in violating}))
    if sla.metric == "max_mean_duration":
        threshold = sla.threshold_ms()
        mean = _stats([s.duration_ms for s in samples])["mean_ms"]
        if mean <= threshold:
            return None
        return Alert(sla.name, concept, sla.metric, mean, threshold,
                     sla.severity, min(s.ts_ms for s in samples),
                     max(s.ts_ms for s in samples), [])
    if sla.metric == "max_fault_rate":
        faulted = [s for s in samples if s.status == "fault"]
        rate = len(faulted) / len(samples)
        if rate <= sla.threshold:
            return None
        return Alert(sla.name, concept, sla.metric, rate, sla.threshold,
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

    bpms = {concept: _stats([s.duration_ms for s in samples], _faults(s.status for s in samples))
            for concept, samples in probes.bpms.items()}
    technical = {process: _stats([s.duration_ms for s in samples])
                 for process, samples in probes.technical.items()}
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
    for concept in sorted(probes.bpms):
        by_uid, by_service = defaultdict(list), defaultdict(list)
        for s in probes.bpms[concept]:
            by_uid[s.uid].append(s.duration_ms)
        for s in probes.soa[concept]:
            by_service[s.service].append(s.duration_ms)
        entry = dict(bpms[concept], contribution_pct=pct(bpms[concept]["total_ms"]))
        entry["nodes"] = {path_of.get(uid, uid): brief(by_uid.get(uid, []))
                          for uid in sorted(uids_by_concept.get(concept, []))}
        entry["services"] = {svc: brief(by_service.get(svc, []))
                             for svc in store.cm.get(concept, [])}
        concepts[concept] = entry

    processes: dict = {}
    for process in sorted(probes.instances):
        instances = probes.instances[process].values()
        entry = _stats([end - start for start, end, _ in instances if end is not None],
                       _faults(status for _, _, status in instances))
        del entry["count"], entry["total_ms"]
        entry["instances"] = len(instances)
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
