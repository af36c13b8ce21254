import json
import math

import pytest

from dsproc import deploy, domain as dom, engine, monitor
from dsproc.diagnostics import DsprocError
from dsproc.mappings import AmEntry, MappingStore

from conftest import fixed_bindings, log_lines

_HEADER = '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}'


def _line(seq, ts, kind, process="P", instance=1, **fields):
    doc = {"seq": seq, "ts_ms": ts, "kind": kind, "process": process,
           "instance": instance}
    doc.update(fields)
    return json.dumps(doc)


def _single_concept_world():
    am = {"u1": AmEntry("C", "P", "u1")}
    return MappingStore("D", cm={"C": ["s"]}, am=am, uids={"P/c": "u1"})


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
    probes = monitor.ingest(lines, store.am)
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
    report = monitor.build_report(monitor.ingest(lines, store.am), store)
    total = sum(m["contribution_pct"] for m in report["concepts"].values())
    total += sum(p["technical"]["contribution_pct"] for p in report["processes"].values())
    assert total == pytest.approx(100.0, abs=1e-6)


def test_p95_nearest_rank():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([float(i) for i in range(1, 101)]), store.am)
    assert monitor.build_report(probes, store)["concepts"]["C"]["p95_ms"] == 95.0
    probes = monitor.ingest(_activity_lines([1.0, 2.0, 3.0]), store.am)
    # ceil(0.95 * 3) = 3rd of 3
    assert monitor.build_report(probes, store)["concepts"]["C"]["p95_ms"] == 3.0


@pytest.mark.parametrize("durations", [[1e308, 1e308], [10**308, 10**308, 1.7e308]],
                         ids=["floats", "ints-then-a-float"])
def test_durations_that_add_up_past_the_largest_float_are_refused(durations):
    # each duration is finite; an int sum past the largest float cannot even
    # take the float added after it
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines(durations), store.am)
    with pytest.raises(DsprocError) as info:
        monitor.build_report(probes, store)
    assert str(info.value) == "durations add up past the largest float"


def test_streaming_equals_batch(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=50)
    store = order_pipeline.store
    batch = monitor.ingest(lines, store.am)
    streamed = monitor.ingest((line for line in lines), store.am)
    assert monitor.build_report(streamed, store) == monitor.build_report(batch, store)


def test_missing_header_reports_line_number():
    store = _single_concept_world()
    with pytest.raises(DsprocError, match="line 1.*header"):
        monitor.ingest([_line(1, 0.0, "processStart", element_id="P")], store.am)


def test_unknown_process_rejected():
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 0.0, "processStart", process="Ghost", element_id="G")]
    with pytest.raises(DsprocError, match="Ghost"):
        monitor.ingest(bad, store.am)


def test_unknown_process_after_a_known_one_rejected():
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
           _line(2, 0.0, "processStart", process="Ghost", element_id="G")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(bad, store.am)
    assert str(exc.value) == "line 3: unknown process 'Ghost'"


def test_a_process_end_before_its_start_is_refused():
    # an instance that ends before it starts has no duration to report
    store = _single_concept_world()
    bad = [_HEADER, _line(1, 5.0, "processStart", element_id="P"),
           _line(2, 4.5, "processEnd", element_id="P")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(bad, store.am)
    assert str(exc.value) == "line 3: processEnd of instance 1 at ts_ms 4.5 precedes its start " \
                             "at ts_ms 5.0"
    # an end at the start's own time is an instance of no duration
    probes = monitor.ingest(bad[:2] + [_line(2, 5.0, "processEnd", element_id="P")], store.am)
    assert probes.instances["P"] == {(1, 1): [5.0, 5.0, "ok"]}


@pytest.mark.parametrize("kind, ts", [("processStart", 5000.0), ("processEnd", 9e6)])
def test_a_second_start_or_end_of_an_instance_is_refused(kind, ts):
    # the second would replace the first, and with it the instance's duration
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P"), _line(3, ts, kind, element_id="P")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store.am)
    assert str(exc.value) == f"line 4: second {kind} of instance 1"
    # instance 1 of another log is another instance
    probes = monitor.ingest(lines[:3] + lines[:3], store.am)
    assert probes.instances["P"] == {(1, 1): [0.0, 10.0, "ok"], (2, 1): [0.0, 10.0, "ok"]}


def test_a_process_end_with_no_start_is_refused():
    # no start ts to measure the instance's duration from
    store = _single_concept_world()
    lines = [_HEADER, _line(1, 0.0, "processStart", instance=2, element_id="P"),
             _line(2, 10.0, "processEnd", element_id="P")]
    with pytest.raises(DsprocError) as exc:
        monitor.ingest(lines, store.am)
    assert str(exc.value) == "line 3: processEnd of instance 1 has no processStart before it"
    # nor may its start come after it
    with pytest.raises(DsprocError) as exc:
        monitor.ingest([_HEADER, lines[2], _line(3, 0.0, "processStart", element_id="P")],
                       store.am)
    assert str(exc.value) == "line 2: processEnd of instance 1 has no processStart before it"


def test_blank_lines_are_skipped_and_records_of_two_processes_may_interleave():
    am = {"u1": AmEntry("C", "P", "u1"), "u2": AmEntry("C", "Q", "u2")}
    store = MappingStore("D", cm={"C": ["s"]}, am=am)
    lines = [
        "\n", _HEADER, "",
        _line(1, 0.0, "processStart", element_id="P"),
        " \t\r\n",
        _line(2, 0.0, "processStart", process="Q", element_id="Q"),
        _line(3, 10.0, "activityEnd", element_uid="u1", duration_ms=10.0),
        _line(4, 30.0, "activityEnd", process="Q", element_uid="u2", duration_ms=30.0),
        _line(5, 40.0, "activityEnd", process="Q", element_id="t", duration_ms=10.0),
        "\x0c\n",
        _line(6, 40.0, "processEnd", process="Q", element_id="Q", status="fault"),
        _line(7, 50.0, "processEnd", element_id="P"),
    ]
    report = monitor.build_report(monitor.ingest(lines, am), store)
    assert report["concepts"]["C"]["count"] == 2
    assert report["concepts"]["C"]["total_ms"] == 40.0
    p, q = report["processes"]["P"], report["processes"]["Q"]
    assert (p["instances"], p["faults"], p["mean_ms"], p["technical"]["count"]) == (1, 0, 50.0, 0)
    assert (q["instances"], q["faults"], q["mean_ms"], q["technical"]["count"]) == (1, 1, 40.0, 1)


def test_malformed_line_reports_position():
    store = _single_concept_world()
    with pytest.raises(DsprocError, match="line 2"):
        monitor.ingest([_HEADER, "{not json"], store.am)


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
        monitor.ingest([_HEADER, line], store.am)


def test_unmapped_activity_lands_in_technical_bucket():
    store = _single_concept_world()
    lines = [
        _HEADER,
        _line(1, 0.0, "processStart", element_id="P", status="ok"),
        _line(2, 40.0, "activityEnd", element_id="A9", status="ok", duration_ms=40.0),
        _line(3, 40.0, "processEnd", element_id="P", status="ok", duration_ms=40.0),
    ]
    probes = monitor.ingest(lines, store.am)
    assert len(probes.technical["P"]) == 1
    assert probes.bpms["C"] == []
    tech = monitor.build_report(probes, store)["processes"]["P"]["technical"]
    assert tech["count"] == 1 and tech["contribution_pct"] == pytest.approx(100.0)


def test_aggregation_across_logs():
    # the same concept mapped in two processes accumulates into one sample list
    am = {"u1": AmEntry("C", "P", "u1"),
          "u2": AmEntry("C", "Q", "u2")}
    store = MappingStore("D", cm={"C": ["s"]}, am=am)
    log_p = _activity_lines([10.0, 20.0])
    log_q = [
        _HEADER,
        _line(1, 0.0, "processStart", process="Q", element_id="Q", status="ok"),
        _line(2, 30.0, "activityEnd", process="Q", element_uid="u2",
              element_id="u2", concept="C", status="ok", duration_ms=30.0),
        _line(3, 30.0, "processEnd", process="Q", element_id="Q",
              status="ok", duration_ms=30.0),
    ]
    probes = monitor.ingest(log_p + log_q, am)  # one file, two logs
    assert len(probes.bpms) == 1
    m = monitor.build_report(probes, store)["concepts"]["C"]
    assert m["count"] == 3
    assert m["mean_ms"] == pytest.approx(20.0)
    assert set(probes.instances) == {"P", "Q"}


def test_logs_of_one_process_keep_every_instance():
    # each log numbers its instances from 1, so instances are told apart by log
    store = _single_concept_world()
    first = _activity_lines([10.0] * 10)
    second = _activity_lines([30.0] * 9 + [50.0], statuses=["ok"] * 9 + ["fault"])
    report = monitor.build_report(monitor.ingest(first + second, store.am), store)
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
    probes = monitor.ingest(lines, store.am)
    soa = monitor.build_report(probes, store)["concepts"]["C"]["services"]["s"]
    assert soa["count"] == 1
    assert soa["total_ms"] == 15.0


def _sla(name="S", metric="max_duration", threshold=1000.0, unit="ms",
         severity="critical"):
    return dom.Sla(name, metric, threshold, unit, severity)


def _alerts(probes, store, sla):
    """The alerts of ``sla`` propagated to each activity of ``store``."""
    return monitor.evaluate_alerts(probes, [(uid, sla) for uid in store.am], store.am)


def test_max_duration_alert_names_exact_violators():
    store = _single_concept_world()
    durations = [100.0, 100.0, 5000.0, 100.0, 100.0, 100.0, 5000.0, 100.0]
    probes = monitor.ingest(_activity_lines(durations), store.am)
    alerts = _alerts(probes, store, _sla())
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.instances == [3, 7]
    assert alert.observed == 5000.0
    assert alert.threshold == 1000.0
    assert alert.severity == "critical"


def test_no_alert_below_threshold():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([10.0, 20.0]), store.am)
    assert _alerts(probes, store, _sla(threshold=1.0, unit="s")) == []


def test_max_mean_duration_alert_uses_mean():
    store = _single_concept_world()
    durations = [100.0, 300.0]  # mean 200
    probes = monitor.ingest(_activity_lines(durations), store.am)
    alerts = _alerts(probes, store, _sla(metric="max_mean_duration", threshold=150.0))
    assert len(alerts) == 1
    assert alerts[0].observed == pytest.approx(200.0)
    assert alerts[0].instances == []


def test_mean_alert_observes_the_report_mean():
    store = _single_concept_world()
    # summed in arrival order these give 0.19999999999999998, sorted 0.20000000000000004
    probes = monitor.ingest(_activity_lines([0.3, 0.2, 0.1]), store.am)
    alerts = _alerts(probes, store, _sla(metric="max_mean_duration", threshold=0.1))
    report = monitor.build_report(probes, store)
    assert len(alerts) == 1
    assert alerts[0].observed == report["concepts"]["C"]["mean_ms"]


def test_max_fault_rate_alert():
    store = _single_concept_world()
    probes = monitor.ingest(
        _activity_lines([10.0] * 4, statuses=["fault", "ok", "ok", "fault"]), store.am)
    alerts = _alerts(probes, store, _sla(metric="max_fault_rate", threshold=0.25, unit="ratio"))
    assert len(alerts) == 1
    assert alerts[0].observed == pytest.approx(0.5)
    assert alerts[0].instances == [1, 4]


def test_alerts_sorted_by_severity_then_subject():
    am = {"u1": AmEntry("A", "P", "u1"),
          "u2": AmEntry("B", "P", "u2")}
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P", status="ok")]
    for seq, (uid, concept) in enumerate([("u1", "A"), ("u2", "B")], start=2):
        lines.append(_line(seq, 9000.0, "activityEnd", element_uid=uid,
                           element_id=uid, concept=concept, status="ok",
                           duration_ms=9000.0))
    probes = monitor.ingest(lines, am)
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
    am = {"u1": AmEntry("C", "P", "u1"), "u2": AmEntry("C", "P", "u2"),
          "u3": AmEntry("D", "P", "u3"), "u4": AmEntry("E", "P", "u4")}
    lines = [_HEADER, _line(1, 0.0, "processStart", element_id="P")]
    for seq, uid in enumerate(["u1", "u2", "u3", "u4"], start=2):
        lines.append(_line(seq, 9000.0, "activityEnd", element_uid=uid, duration_ms=9000.0))
    propagated = dom.propagate_sla(d, am)
    assert [uid for uid, _ in propagated] == ["u1", "u2", "u3"]
    alerts = monitor.evaluate_alerts(monitor.ingest(lines, am), propagated, am)
    assert [(a.subject, a.sla, a.instances) for a in alerts] == [("C", "Cap", [1]),
                                                                 ("D", "Cap", [1])]


def test_register_sla_is_idempotent_and_checks_concept():
    store = _single_concept_world()
    probes = monitor.ingest(_activity_lines([5000.0]), store.am)
    sla = _sla()
    # the same SLA given twice for one activity is checked once
    alerts = monitor.evaluate_alerts(probes, [("u1", sla), ("u1", sla)], store.am)
    assert [(a.subject, a.sla) for a in alerts] == [("C", "S")]
    d = dom.parse_domain('domain D {\n  sla S { max_duration 1 ms severity critical }\n'
                         '  concept C { label "c" sla S }\n}\n')
    with pytest.raises(DsprocError, match="unknown concept"):
        dom.propagate_sla(d, {"u1": AmEntry("Nope", "P", "u1")})


def test_propagated_to_concepts(order_pipeline):
    am = order_pipeline.am
    propagated = dom.propagate_sla(order_pipeline.domain, am)
    expected = {(c.name, c.sla_ref) for c in order_pipeline.domain.concepts
                if c.sla_ref is not None and any(e.concept == c.name for e in am.values())}
    assert {(am[uid].concept, sla.name) for uid, sla in propagated} == expected
    assert expected
    # every mapped activity breaks every SLA: one alert per (concept, SLA)
    lines = [_HEADER]
    for seq, (uid, entry) in enumerate(am.items(), start=1):
        lines.append(_line(seq, 1e12, "activityEnd", process=entry.process,
                           element_uid=uid, duration_ms=1e12))
    alerts = monitor.evaluate_alerts(monitor.ingest(lines, am), propagated, am)
    assert sorted((a.subject, a.sla) for a in alerts) == sorted(expected)


def test_report_keys_are_model_node_paths(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=20)
    store = order_pipeline.store
    probes = monitor.ingest(lines, store.am)
    report = monitor.build_report(probes, store)
    assert set(report["concepts"]) >= set(store.cm) - {"ProcessShippingCost"}
    payment = report["concepts"]["HandlePayment"]
    assert list(payment["nodes"]) == ["HandleOrder/fulfill/pay"]
    assert set(payment["services"]) == {"s1", "s2"}
    assert report["processes"]["HandleOrder"]["instances"] == 20


def test_report_includes_zero_count_concepts():
    store = _single_concept_world()
    probes = monitor.ingest([_HEADER], store.am)
    report = monitor.build_report(probes, store)
    entry = report["concepts"]["C"]
    assert entry["count"] == 0
    assert "mean_ms" not in entry


def test_report_renderers_smoke(order_pipeline):
    lines = _simulated_log(order_pipeline, instances=10)
    store = order_pipeline.store
    probes = monitor.ingest(lines, store.am)
    report = monitor.build_report(probes, store)
    as_json = monitor.render_report_json(report)
    assert json.loads(as_json) == json.loads(as_json)  # valid JSON
    text = monitor.render_report_text(report)
    assert "HandlePayment" in text
    assert "HandleOrder" in text
