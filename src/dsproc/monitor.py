"""Concept-level monitoring: sample tables, SLA alerts and reports.

Ingestion replays a log into a :class:`ProbeSet` of plain tables, each
read as it was filled: every mapped activity's BPMS samples, and every
mapped concept's SOA durations per CM service. Events whose element has no
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
from collections import namedtuple

from .diagnostics import DsprocError, fits_a_float, sum_in_order
from .eventlog import read_log

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from .domain import Sla
    from .mappings import ActivityMappings, MappingStore

_SEVERITY_RANK = {"critical": 0, "warning": 1, "info": 2}

# one completion of a mapped activity
Sample = namedtuple("Sample", "duration_ms status instance ts_ms")


# The tables of an ingested log. ``activities`` maps each mapped concept to
# its activities, and each activity's uid to its samples; ``services`` maps
# each mapped concept to its CM services, and each to the durations of the
# invocations the concept's activities made. ``instances`` maps each process
# to its instances, ``[start_ts, end_ts, status]`` keyed by (log, instance
# number), as every log numbers its instances from 1; ``end_ts`` and
# ``status`` are None until the instance ends. ``technical`` maps each
# process to the durations of its unmapped activity completions. Concepts
# and activities are in mapping order, processes in the order the log first
# names them.
ProbeSet = namedtuple("ProbeSet", "activities services instances technical")


def ingest(lines: Iterable[str], store: MappingStore, cm: dict[str, list[str]]) -> ProbeSet:
    """Replay an event log (header line included) into a probe set.

    ``lines`` may be any iterable, an open file included; it is read once,
    line by line. It may hold several logs, each after its own header, of
    the processes ``store`` holds: the same concept used by two processes
    accumulates into one concept's tables. ``cm`` gives each concept's
    services, as ``mappings.build_cm`` derives them from the domain.
    ``eventlog.read_log`` checks the log's format; ingest checks it against
    the store. A record of a process the store does not hold is an error;
    so is a measured record of an instance that is not running, and a
    ``serviceInvoke`` of a service that is not its mapped activity's
    concept's, so no call goes uncounted.
    """
    probes = ProbeSet({}, {}, {}, {})
    known_processes = store.processes()
    samples_of = {}  # each mapped activity's samples, by uid
    for uid, e in store.am.items():
        activities = probes.activities.get(e.concept)
        if activities is None:
            activities = probes.activities[e.concept] = {}
            probes.services[e.concept] = {svc: [] for svc in cm.get(e.concept, ())}
        samples_of[uid] = activities[uid] = []
    # the durations of each CM service of a mapped activity's concept, by (uid, service)
    durations_of = {(uid, svc): durations for uid, e in store.am.items()
                    for svc, durations in probes.services[e.concept].items()}
    log = 0  # the log headers read
    last = None  # the last record's process, with its instances and technical bucket
    new = tuple.__new__  # a Sample from its four fields, without a Python-level call
    for line_no, values in read_log(lines):
        if values.__class__ is dict:
            log += 1
            continue
        ts, kind, process, instance, uid, _element_id, _concept, service, status, \
            duration = values
        if process != last:
            if process not in known_processes:
                raise DsprocError(f"line {line_no}: unknown process {process!r}")
            technical = probes.technical.get(process)
            if technical is None:
                technical = probes.technical[process] = []
                probes.instances[process] = {}
            instances = probes.instances[process]
            last = process
        if kind == "processStart":
            if (log, instance) in instances:
                raise _outside(line_no, kind, instance, instances[log, instance])
            instances[log, instance] = [ts, None, None]
            continue
        if kind == "activityStart" or kind == "gatewayTaken":
            continue  # they carry no aggregated measure
        # any other record is measured, and of a running instance
        record = instances.get((log, instance))
        if record is None or record[1] is not None:
            raise _outside(line_no, kind, instance, record)
        if kind == "activityEnd":
            samples = samples_of.get(uid)
            # or 0.0: a zero duration, 0 or -0.0, counts as 0.0
            if samples is None:
                technical.append(duration or 0.0)
            else:
                samples.append(new(Sample, (duration or 0.0, status, instance, ts)))
        elif kind == "serviceInvoke":
            durations = durations_of.get((uid, service))
            if durations is None:
                raise _stray_call(line_no, uid, service, store.am)
            durations.append(duration or 0.0)
        else:  # processEnd
            if ts < record[0]:
                raise DsprocError(f"line {line_no}: processEnd of instance {instance} at "
                                  f"ts_ms {ts!r} precedes its start at ts_ms {record[0]!r}")
            record[1], record[2] = ts, status
    return probes


def _outside(line_no: int, kind: str, instance: int, record: list | None) -> DsprocError:
    """The error for a record of an instance that has not started (its
    ``record`` is None) or has ended, or for a second start or end of it."""
    if record is None:
        return DsprocError(f"line {line_no}: {kind} of instance {instance} has no "
                           f"processStart before it")
    if kind in ("processStart", "processEnd"):
        return DsprocError(f"line {line_no}: second {kind} of instance {instance}")
    return DsprocError(f"line {line_no}: {kind} of instance {instance} after its processEnd")


def _stray_call(line_no: int, uid: str, service: str, am: ActivityMappings) -> DsprocError:
    """The error for a serviceInvoke that is no call of a service of a mapped
    activity's concept: of an unmapped ``uid``, or of another ``service``."""
    entry = am.get(uid)
    if entry is None:
        return DsprocError(f"line {line_no}: serviceInvoke of {uid} calls {service}, "
                           f"but {uid} is no mapped activity")
    return DsprocError(f"line {line_no}: serviceInvoke of {uid} calls {service}, "
                       f"which concept {entry.concept!r} does not use")


def _samples(activities: dict[str, list[Sample]]) -> list[Sample]:
    """A concept's samples: those of each of its ``activities`` in turn."""
    return [s for samples in activities.values() for s in samples]


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
    of its activities, on the BPMS samples of that concept's activities; by
    severity, then concept, then SLA name."""
    slas = {(am[uid].concept, sla.name): sla for uid, sla in propagated}
    alerts = [alert for (concept, _name), sla in slas.items()
              if (alert := _check_sla(concept, _samples(probes.activities.get(concept, {})),
                                      sla)) is not None]
    alerts.sort(key=lambda a: (_SEVERITY_RANK.get(a.severity, 3), a.subject, a.sla))
    return alerts


def _check_sla(concept: str, samples: list[Sample], sla: Sla) -> Alert | None:
    if not samples:
        return None
    if sla.metric == "max_duration":
        threshold = sla.threshold_ms()
        violating = [s for s in samples if s.duration_ms > threshold]
        observed = max((s.duration_ms for s in violating), default=threshold)
    elif sla.metric == "max_mean_duration":
        threshold = sla.threshold_ms()
        observed = _stats([s.duration_ms for s in samples])["mean_ms"]
        violating = samples  # a mean is dated by every sample, and names no instance
    else:  # max_fault_rate, the last of SLA_METRICS
        threshold = sla.threshold
        violating = [s for s in samples if s.status == "fault"]
        observed = len(violating) / len(samples)
    if observed <= threshold:
        return None
    return Alert(sla.name, concept, sla.metric, observed, threshold, sla.severity,
                 min((s.ts_ms for s in violating), default=None),
                 max((s.ts_ms for s in violating), default=None),
                 [] if violating is samples else sorted({s.instance for s in violating}))


# ---------------------------------------------------------------------------
# reporting


def build_report(probes: ProbeSet, store: MappingStore) -> dict:
    """Monitoring report keyed by the modelling-level node paths, not BPMN ids."""
    bpms = {}
    for concept, activities in probes.activities.items():
        samples = _samples(activities)
        bpms[concept] = _stats([s.duration_ms for s in samples],
                               _faults(s.status for s in samples))
    technical = {process: _stats(durations) for process, durations in probes.technical.items()}
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
    for concept in sorted(probes.activities):
        activities = probes.activities[concept]
        entry = dict(bpms[concept], contribution_pct=pct(bpms[concept]["total_ms"]))
        entry["nodes"] = {store.path_of[uid]: brief([s.duration_ms for s in activities[uid]])
                          for uid in sorted(activities)}
        entry["services"] = {svc: brief(durations)
                             for svc, durations in probes.services[concept].items()}
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
