import json
import math
import time
from collections import deque
from unittest import mock

import pytest

from dsproc import deploy, domain as dom, engine, eventlog, monitor
from dsproc.diagnostics import DsprocError
from dsproc.mappings import AmEntry, MappingStore, build_cm

from conftest import fixed_bindings, log_lines

_HEADER = '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}'


def _line(seq, ts, kind, process="P", instance=1, **fields):
    doc = {"seq": seq, "ts_ms": ts, "kind": kind, "process": process,
           "instance": instance}
    doc.update(fields)
    return json.dumps(doc)


# the services of concept C
_CM = {"C": ["s"]}


def _single_concept_world():
    am = {"u1": AmEntry("C", "P")}
    return MappingStore("D", am=am, uids={"P/c": "u1"})


def _activity_lines(durations, statuses=None, instances=None):
    statuses = statuses or ["ok"] * len(durations)
    instances = instances or list(range(1, len(durations) + 1))
    lines = [_HEADER]
    seq = 0
    for d, st, inst in zip(durations, statuses, instances):
        seq += 1
        lines.append(_line(seq, 0.0, "processStart", instance=inst,
                           element_id="P", status="ok"))
        seq += 1
        lines.append(_line(seq, d, "activityEnd", instance=inst,
                           element_uid="u1", element_id="u1", concept="C",
                           status=st, duration_ms=d))
        seq += 1
        lines.append(_line(seq, d, "processEnd", instance=inst,
                           element_id="P", status=st, duration_ms=d))
    return lines


def _simulated_log(order_pipeline, instances=200, seed=3):
    d = order_pipeline.domain
    manifest = deploy.bind_services(d, fixed_bindings(d, profile="p"),
                                    order_pipeline.am, "HandleOrder")
    cfg = engine.SimulationConfig(
        instance_count=instances, seed=seed,
        profiles={"p": engine.DurationProfile("uniform", low=10.0, high=500.0)})
    cfg.validate()
    records = engine.simulate(order_pipeline.generated, manifest, cfg)
    return log_lines(records, cfg)


def test_ingest_matches_brute_force_replay(order_pipeline):
    lines = _simulated_log(order_pipeline)
    store = order_pipeline.store
    probes = monitor.ingest(lines, store, build_cm(order_pipeline.domain))
    metrics = monitor.build_report(probes, store)["concepts"]

    # independent oracle: group the raw JSON lines by concept directly
    concept_of = {uid: e.concept for uid, e in store.am.items()}
    grouped = {}
    for line in lines[1:]:
        doc = json.loads(line)
        if doc["kind"] != "activityEnd":
            continue
        concept = concept_of.get(doc.get("element_uid"))
        if concept is not None:
            grouped.setdefault(concept, []).append(doc["duration_ms"])

    for concept, durations in grouped.items():
        m = metrics[concept]
        assert m["count"] == len(durations)
        assert m["mean_ms"] == pytest.approx(sum(durations) / len(durations), rel=1e-9)
        assert m["min_ms"] == min(durations)
        assert m["max_ms"] == max(durations)
        ranked = sorted(durations)
        assert m["p95_ms"] == ranked[max(1, math.ceil(0.95 * len(ranked))) - 1]


def test_contributions_sum_to_one_hundred(order_pipeline):
    lines = _simulated_log(order_pipeline)
    store = order_pipeline.store
    probes = monitor.ingest(lines, store, build_cm(order_pipeline.domain))
    report = monitor.build_report(probes, store)
    total = sum(m["contribution_pct"] for m in report["concepts"].values())
    total += sum(p["technical"]["contribution_pct"] for p in report["processes"].values())
    assert total == pytest.approx(100.0, abs=1e-6)


def test_p95_nearest_rank():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([float(i) for i in range(1, 101)]), store, _CM)
    assert monitor.build_report(probes, store)["concepts"]["C"]["p95_ms"] == 95.0
    probes = monitor.ingest(_activity_lines([1.0, 2.0, 3.0]), store, _CM)
    # ceil(0.95 * 3) = 3rd of 3
    assert monitor.build_report(probes, store)["concepts"]["C"]["p95_ms"] == 3.0


@pytest.mark.parametrize("durations", [[1e308, 1e308], [10**308, 10**308, 1.7e308]],
                         ids=["floats", "ints-then-a-float"])
def test_durations_that_add_up_past_the_largest_float_are_refused(durations):
    # each duration is finite; an int sum past the largest float cannot even
    # take the float added after it
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines(durations), store, _CM)
    with pytest.raises(DsprocError) as info:
        monitor.build_report(probes, store)
    assert str(info.value) == "durations add up past the largest float"


def _least_thread_time(work, rounds=5):
    """The least thread time, in seconds, of ``rounds`` calls of ``work``."""
    times = []
    for _ in range(rounds):
        start = time.thread_time()
        work()
        times.append(time.thread_time() - start)
    return min(times)


def test_read_log_and_ingest_grow_linearly(order_pipeline):
    # a log four times longer: a linear stage takes about 4x as long, a
    # quadratic one about 16x
    store, cm = order_pipeline.store, build_cm(order_pipeline.domain)
    short, long = (_simulated_log(order_pipeline, instances=n) for n in (150, 600))
    assert 3.8 < len(long) / len(short) < 4.2
    for name, work in [("read_log", lambda lines: deque(eventlog.read_log(lines), 0)),
                       ("ingest", lambda lines: monitor.ingest(lines, store, cm))]:
        ratio = _least_thread_time(lambda: work(long)) / _least_thread_time(lambda: work(short))
        assert ratio <= 8, f"{name} took {ratio:.1f}x as long on a log 4x as long"


def test_streaming_equals_batch(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=50)
    store = order_pipeline.store
    cm = build_cm(order_pipeline.domain)
    batch = monitor.ingest(lines, store, cm)
    streamed = monitor.ingest((line for line in lines), store, cm)
    assert monitor.build_report(streamed, store) == monitor.build_report(batch, store)


def test_missing_header_reports_line_number():
    store = _single_concept_world()
    with pytest.raises(DsprocError, match="line 1.*header"):
        monitor.ingest([_line(1, 0.0, "processStart", element_id="P")], store, _CM)


def test_unknown_process_rejected():
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 0.0, "processStart", process="Ghost", element_id="G")]
    with pytest.raises(DsprocError, match="Ghost"):
        monitor.ingest(bad, store, _CM)


def test_unknown_process_after_a_known_one_rejected():
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
           _line(2, 0.0, "processStart", process="Ghost", element_id="G")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(bad, store, _CM)
    assert str(exc.value) == "line 3: unknown process 'Ghost'"


def test_a_process_end_before_its_start_is_refused():
    # an instance that ends before it starts has no duration to report
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 5.0, "processStart", element_id="P"),
           _line(2, 4.5, "processEnd", element_id="P", status="ok")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(bad, store, _CM)
    assert str(exc.value) == "line 3: processEnd of instance 1 at ts_ms 4.5 precedes its start " \
                             "at ts_ms 5.0"
    # an end at the start's own time is an instance of no duration
    probes = monitor.ingest(bad[:2] + [_line(2, 5.0, "processEnd", element_id="P", status="ok",
                                             duration_ms=0.0)], store, _CM)
    assert probes.instances["P"] == {(1, 1): [5.0, 5.0, "ok"]}


@pytest.mark.parametrize("kind, ts", [("processStart", 5000.0), ("processEnd", 9e6)])
def test_a_second_start_or_end_of_an_instance_is_refused(kind, ts):
    # the second would replace the first, and with it the instance's duration
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P", status="ok", duration_ms=10.0),
             _line(3, ts, kind, element_id="P", status="ok")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store, _CM)
    assert str(exc.value) == f"line 4: second {kind} of instance 1"
    # instance 1 of another log is another instance
    probes = monitor.ingest(lines[:3] + lines[:3], store, _CM)
    assert probes.instances["P"] == {(1, 1): [0.0, 10.0, "ok"], (2, 1): [0.0, 10.0, "ok"]}


def test_a_process_end_with_no_start_is_refused():
    # no start ts to measure the instance's duration from
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", instance=2, element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P", status="ok")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store, _CM)
    assert str(exc.value) == "line 3: processEnd of instance 1 has no processStart before it"
    # nor may its start come after it
    with pytest.raises(DsprocError) as exc:
        monitor.ingest([_HEADER, _line(1, 10.0, "processEnd", element_id="P", status="ok"),
                        _line(2, 0.0, "processStart", element_id="P")], store, _CM)
    assert str(exc.value) == "line 2: processEnd of instance 1 has no processStart before it"


@pytest.mark.parametrize("kind", ["activityEnd", "serviceInvoke"])
def test_a_measured_record_of_an_unstarted_instance_is_refused(kind):
    # its sample would count for the concept, while the instance counts nowhere
    store = _single_concept_world()

    def record(seq):
        return _line(seq, 10.0, kind, instance=2, element_uid="u1", element_id="u1", concept="C",
                     service="s", status="ok", duration_ms=10.0)
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P"), record(2)]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store, _CM)
    assert str(exc.value) == f"line 3: {kind} of instance 2 has no processStart before it"
    # nor does a start of instance 2 in an earlier log start it in this one
    started = lines[:2] + [_line(2, 0.0, "processStart", instance=2, element_id="P")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(started + [_HEADER, record(1)], store, _CM)
    assert str(exc.value) == f"line 5: {kind} of instance 2 has no processStart before it"
    probes = monitor.ingest(started + [record(3)], store, _CM)
    assert (probes.activities["C"]["u1"], probes.services["C"]["s"]) == (
        ([monitor.Sample(10.0, "ok", 2, 10.0)], []) if kind == "activityEnd" else ([], [10.0]))


@pytest.mark.parametrize("kind", ["activityEnd", "serviceInvoke"])
def test_a_measured_record_after_its_instance_ends_is_refused(kind):
    # its sample would count for the concept after the instance was counted
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P", status="ok", duration_ms=10.0),
             _line(3, 20.0, kind, element_uid="u1", element_id="u1", concept="C", service="s",
                   status="ok", duration_ms=10.0)]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store, _CM)
    assert str(exc.value) == f"line 4: {kind} of instance 1 after its processEnd"


@pytest.mark.parametrize("route", ["pattern", "json"])
def test_a_format_error_is_reported_before_a_store_error(route):
    # the activityEnd has no duration_ms, and comes after its instance's
    # processEnd: read_log refuses the first before ingest sees the second
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P", status="ok", duration_ms=10.0),
             _line(3, 20.0, "activityEnd", element_uid="u1", element_id="u1", concept="C",
                   status="ok")]
    assert eventlog._fullmatch()(lines[3])  # in the canonical form
    fullmatch = {"pattern": eventlog._fullmatch, "json": lambda: lambda line: None}[route]
    with mock.patch.object(eventlog, "_fullmatch", fullmatch), \
            pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store, _CM)
    assert str(exc.value) == "line 4: activityEnd of instance 1 has no duration_ms"


def test_blank_lines_are_skipped_and_records_of_two_processes_may_interleave():
    am = {"u1": AmEntry("C", "P"), "u2": AmEntry("C", "Q")}
    store = MappingStore("D", am=am, uids={"P/a": "u1", "Q/b": "u2"})
    lines = [
        "\n", _HEADER, "",
        _line(1, 0.0, "processStart", element_id="P"),
        " \t\r\n",
        _line(2, 0.0, "processStart", process="Q", element_id="Q"),
        _line(3, 10.0, "activityEnd", element_uid="u1", element_id="u1", concept="C",
              status="ok", duration_ms=10.0),
        _line(4, 30.0, "activityEnd", process="Q", element_uid="u2", element_id="u2",
              concept="C", status="ok", duration_ms=30.0),
        _line(5, 40.0, "activityEnd", process="Q", element_id="t", status="ok",
              duration_ms=10.0),
        "\x0c\n",
        _line(6, 40.0, "processEnd", process="Q", element_id="Q", status="fault",
              duration_ms=40.0),
        _line(7, 50.0, "processEnd", element_id="P", status="ok", duration_ms=50.0),
    ]
    report = monitor.build_report(monitor.ingest(lines, store, _CM), store)
    assert report["concepts"]["C"]["count"] == 2
    assert report["concepts"]["C"]["total_ms"] == 40.0
    p, q = report["processes"]["P"], report["processes"]["Q"]
    assert (p["instances"], p["faults"], p["mean_ms"], p["technical"]["count"]) == (1, 0, 50.0, 0)
    assert (q["instances"], q["faults"], q["mean_ms"], q["technical"]["count"]) == (1, 1, 40.0, 1)


def test_malformed_line_reports_position():
    store = _single_concept_world()
    with pytest.raises(DsprocError, match="line 2"):
        monitor.ingest([_HEADER, "{not json"], store, _CM)


@pytest.mark.parametrize("line", [
    "5",
    "null",
    '"processStart"',
    _line(1, 0.0, "processStart", instance=[1]),
    _line(1, 0.0, "activityEnd", element_uid="u1", duration_ms="7"),
    _line(1, 0.0, "processStart", instance=True),
    '{"seq": 1, "ts_ms": 0.0, "process": "P", "instance": 1}',
], ids=["number", "null", "string", "list-instance", "string-duration", "bool-instance",
        "no-kind"])
def test_malformed_record_rejected_with_line_number(line):
    store = _single_concept_world()
    with pytest.raises(DsprocError, match="^line 2: malformed record"):
        monitor.ingest([_HEADER, line], store, _CM)


def test_unmapped_activity_lands_in_technical_bucket():
    store = _single_concept_world()
    lines = [
        _HEADER,
        _line(1, 0.0, "processStart", element_id="P", status="ok"),
        _line(2, 40.0, "activityEnd", element_id="A9", status="ok", duration_ms=40.0),
        _line(3, 40.0, "processEnd", element_id="P", status="ok", duration_ms=40.0),
    ]
    probes = monitor.ingest(lines, store, _CM)
    assert probes.technical["P"] == [40.0]
    assert probes.activities["C"] == {"u1": []}
    tech = monitor.build_report(probes, store)["processes"]["P"]["technical"]
    assert tech["count"] == 1 and tech["contribution_pct"] == pytest.approx(100.0)


def test_aggregation_across_logs():
    # the same concept mapped in two processes accumulates into one sample list
    am = {"u1": AmEntry("C", "P"),
          "u2": AmEntry("C", "Q")}
    store = MappingStore("D", am=am, uids={"P/a": "u1", "Q/b": "u2"})
    log_p = _activity_lines([10.0, 20.0])
    log_q = [
        _HEADER,
        _line(1, 0.0, "processStart", process="Q", element_id="Q", status="ok"),
        _line(2, 30.0, "activityEnd", process="Q", element_uid="u2",
              element_id="u2", concept="C", status="ok", duration_ms=30.0),
        _line(3, 30.0, "processEnd", process="Q", element_id="Q",
              status="ok", duration_ms=30.0),
    ]
    probes = monitor.ingest(log_p + log_q, store, _CM)  # one file, two logs
    assert list(probes.activities) == ["C"]
    m = monitor.build_report(probes, store)["concepts"]["C"]
    assert m["count"] == 3
    assert m["mean_ms"] == pytest.approx(20.0)
    assert set(probes.instances) == {"P", "Q"}


def test_logs_of_one_process_keep_every_instance():
    # each log numbers its instances from 1, so instances are told apart by log
    store = _single_concept_world()
    first = _activity_lines([10.0] * 10)
    second = _activity_lines([30.0] * 9 + [50.0], statuses=["ok"] * 9 + ["fault"])
    report = monitor.build_report(monitor.ingest(first + second, store, _CM), store)
    process = report["processes"]["P"]
    assert (process["instances"], process["faults"], process["mean_ms"]) == (20, 1, 21.0)
    assert "process P: instances=20 faults=1 " in monitor.render_report_text(report)


def test_soa_layer_collects_service_invocations():
    store = _single_concept_world()
    lines = [
        _HEADER,
        _line(1, 0.0, "processStart", element_id="P", status="ok"),
        _line(2, 15.0, "serviceInvoke", element_uid="u1", element_id="u1",
              concept="C", service="s", status="ok", duration_ms=15.0),
        _line(3, 15.0, "activityEnd", element_uid="u1", element_id="u1",
              concept="C", status="ok", duration_ms=15.0),
        _line(4, 15.0, "processEnd", element_id="P", status="ok", duration_ms=15.0),
    ]
    probes = monitor.ingest(lines, store, _CM)
    soa = monitor.build_report(probes, store)["concepts"]["C"]["services"]["s"]
    assert soa["count"] == 1
    assert soa["total_ms"] == 15.0


def test_a_zero_duration_counts_as_zero_point_zero():
    # 0 and -0.0 are both no time; each table, and so the report, holds 0.0
    store = _single_concept_world()
    lines = [
        _HEADER,
        _line(1, 0.0, "processStart", element_id="P", status="ok"),
        _line(2, 0.0, "serviceInvoke", element_uid="u1", element_id="u1", concept="C",
              service="s", status="ok", duration_ms=0),
        _line(3, 0.0, "activityEnd", element_uid="u1", element_id="u1", concept="C",
              status="ok", duration_ms=-0.0),
        _line(4, 0.0, "activityEnd", element_id="t", status="ok", duration_ms=0),
        _line(5, 0.0, "processEnd", element_id="P", status="ok", duration_ms=0.0),
    ]
    probes = monitor.ingest(lines, store, _CM)
    durations = [probes.services["C"]["s"][0], probes.activities["C"]["u1"][0].duration_ms,
                 probes.technical["P"][0]]
    assert [repr(d) for d in durations] == ["0.0"] * 3


def _sla(name="S", metric="max_duration", threshold=1000.0, unit="ms",
         severity="critical"):
    return dom.Sla(name, metric, threshold, unit, severity)


def _alerts(probes, store, sla):
    """The alerts of ``sla`` propagated to each activity of ``store``."""
    return monitor.evaluate_alerts(probes, [(uid, sla) for uid in store.am], store.am)


def test_max_duration_alert_names_exact_violators():
    store = _single_concept_world()
    durations = [100.0, 100.0, 5000.0, 100.0, 100.0, 100.0, 5000.0, 100.0]
    probes = monitor.ingest(_activity_lines(durations), store, _CM)
    alerts = _alerts(probes, store, _sla())
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.instances == [3, 7]
    assert alert.observed == 5000.0
    assert alert.threshold == 1000.0
    assert alert.severity == "critical"


def test_no_alert_below_threshold():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([10.0, 20.0]), store, _CM)
    assert _alerts(probes, store, _sla(threshold=1.0, unit="s")) == []


def test_an_sla_alerts_only_on_a_value_past_its_threshold():
    store = _single_concept_world()
    above = math.nextafter(1000.0, math.inf)
    # a sample equal to the threshold is within it; one just above is not
    probes = monitor.ingest(_activity_lines([999.0, 1000.0]), store, _CM)
    assert _alerts(probes, store, _sla()) == []
    probes = monitor.ingest(_activity_lines([1000.0, above]), store, _CM)
    [alert] = _alerts(probes, store, _sla())
    assert (alert.observed, alert.instances) == (above, [2])
    # a mean, and a fault rate, equal to the threshold
    probes = monitor.ingest(_activity_lines([900.0, 1100.0]), store, _CM)
    assert _alerts(probes, store, _sla(metric="max_mean_duration")) == []
    probes = monitor.ingest(
        _activity_lines([10.0] * 4, statuses=["ok", "fault", "ok", "ok"]), store, _CM)
    assert _alerts(probes, store, _sla(metric="max_fault_rate", threshold=0.25,
                                       unit="ratio")) == []


def test_max_mean_duration_alert_uses_mean():
    store = _single_concept_world()
    durations = [100.0, 300.0]  # mean 200
    probes = monitor.ingest(_activity_lines(durations), store, _CM)
    alerts = _alerts(probes, store, _sla(metric="max_mean_duration", threshold=150.0))
    assert len(alerts) == 1
    assert alerts[0].observed == pytest.approx(200.0)
    assert alerts[0].instances == []


def test_mean_alert_observes_the_report_mean():
    store = _single_concept_world()
    # summed in arrival order these give 0.19999999999999998, sorted 0.20000000000000004
    probes = monitor.ingest(_activity_lines([0.3, 0.2, 0.1]), store, _CM)
    alerts = _alerts(probes, store, _sla(metric="max_mean_duration", threshold=0.1))
    report = monitor.build_report(probes, store)
    assert len(alerts) == 1
    assert alerts[0].observed == report["concepts"]["C"]["mean_ms"]


def test_max_fault_rate_alert():
    store = _single_concept_world()
    probes = monitor.ingest(
        _activity_lines([10.0] * 4, statuses=["fault", "ok", "ok", "fault"]), store, _CM)
    alerts = _alerts(probes, store, _sla(metric="max_fault_rate", threshold=0.25, unit="ratio"))
    assert len(alerts) == 1
    assert alerts[0].observed == pytest.approx(0.5)
    assert alerts[0].instances == [1, 4]


def test_alerts_sorted_by_severity_then_subject():
    am = {"u1": AmEntry("A", "P"),
          "u2": AmEntry("B", "P")}
    store = MappingStore("D", am=am, uids={"P/a": "u1", "P/b": "u2"})
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P", status="ok")]
    for seq, (uid, concept) in enumerate([("u1", "A"), ("u2", "B")], start=2):
        lines.append(_line(seq, 9000.0, "activityEnd", element_uid=uid,
                           element_id=uid, concept=concept, status="ok",
                           duration_ms=9000.0))
    probes = monitor.ingest(lines, store, {})
    alerts = monitor.evaluate_alerts(probes, [
        ("u1", _sla(name="warnSla", severity="warning")),
        ("u2", _sla(name="critSla", severity="critical")),
    ], am)
    assert [(a.severity, a.subject) for a in alerts] == \
        [("critical", "B"), ("warning", "A")]


def test_an_sla_on_several_activities_of_a_concept_alerts_once():
    d = dom.parse_domain('domain D {\n  sla Cap { max_duration 1 ms severity critical }\n'
                         '  concept C { label "c" sla Cap }\n'
                         '  concept D { label "d" sla Cap }\n'
                         '  concept E { label "e" }\n}\n')
    am = {"u1": AmEntry("C", "P"), "u2": AmEntry("C", "P"),
          "u3": AmEntry("D", "P"), "u4": AmEntry("E", "P")}
    store = MappingStore("D", am=am, uids={f"P/{uid}": uid for uid in am})
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P")]
    for seq, uid in enumerate(["u1", "u2", "u3", "u4"], start=2):
        lines.append(_line(seq, 9000.0, "activityEnd", element_uid=uid, element_id=uid,
                           concept=am[uid].concept, status="ok", duration_ms=9000.0))
    propagated = dom.propagate_sla(d, am)
    assert [uid for uid, _ in propagated] == ["u1", "u2", "u3"]
    alerts = monitor.evaluate_alerts(monitor.ingest(lines, store, {}), propagated, am)
    assert [(a.subject, a.sla, a.instances) for a in alerts] == [("C", "Cap", [1]),
                                                                 ("D", "Cap", [1])]


def test_register_sla_is_idempotent():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([5000.0]), store, _CM)
    sla = _sla()
    # the same SLA given twice for one activity is checked once
    alerts = monitor.evaluate_alerts(probes, [("u1", sla), ("u1", sla)], store.am)
    assert [(a.subject, a.sla) for a in alerts] == [("C", "S")]


def test_propagated_to_concepts(order_pipeline):
    am = order_pipeline.am
    propagated = dom.propagate_sla(order_pipeline.domain, am)
    expected = {(c.name, c.sla_ref) for c in order_pipeline.domain.concepts
                if c.sla_ref is not None and any(e.concept == c.name for e in am.values())}
    assert {(am[uid].concept, sla.name) for uid, sla in propagated} == expected
    assert expected
    # every mapped activity breaks every SLA: one alert per (concept, SLA)
    lines = [_HEADER, _line(1, 0.0, "processStart", process="HandleOrder")]
    for seq, (uid, entry) in enumerate(am.items(), start=2):
        lines.append(_line(seq, 1e12, "activityEnd", process=entry.process,
                           element_uid=uid, element_id=uid, concept=entry.concept,
                           status="ok", duration_ms=1e12))
    probes = monitor.ingest(lines, order_pipeline.store, build_cm(order_pipeline.domain))
    alerts = monitor.evaluate_alerts(probes, propagated, am)
    assert sorted((a.subject, a.sla) for a in alerts) == sorted(expected)


def test_report_keys_are_model_node_paths(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=20)
    store = order_pipeline.store
    cm = build_cm(order_pipeline.domain)
    probes = monitor.ingest(lines, store, cm)
    report = monitor.build_report(probes, store)
    assert set(report["concepts"]) >= set(cm) - {"ProcessShippingCost"}
    payment = report["concepts"]["HandlePayment"]
    assert list(payment["nodes"]) == ["HandleOrder/fulfill/pay"]
    assert set(payment["services"]) == {"s1", "s2"}
    assert report["processes"]["HandleOrder"]["instances"] == 20


def test_report_includes_zero_count_concepts():
    store = _single_concept_world()
    probes = monitor.ingest([_HEADER], store, _CM)
    report = monitor.build_report(probes, store)
    entry = report["concepts"]["C"]
    assert entry["count"] == 0
    assert "mean_ms" not in entry


def test_report_renderers_smoke(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=10)
    store = order_pipeline.store
    probes = monitor.ingest(lines, store, build_cm(order_pipeline.domain))
    report = monitor.build_report(probes, store)
    as_json = monitor.render_report_json(report)
    assert json.loads(as_json) == json.loads(as_json)  # valid JSON
    text = monitor.render_report_text(report)
    assert "HandlePayment" in text
    assert "HandleOrder" in text
