"""End-to-end acceptance checks for the whole toolchain.

Each test prints a single PASS line when its criterion holds; any failure
surfaces as a normal assertion error. Run with ``pytest -v tests/test_acceptance.py``.
"""

import difflib
import json
import math
import random
import shutil
import time
from collections import Counter

import pytest

from dsproc import bpmn, cli, deploy, diagnostics, domain as dom, engine, eventlog, mappings
from dsproc import monitor, pivot
from dsproc import process as proc

from conftest import (FIXTURES, compile_pipeline, compile_sources,
                      fixed_bindings, fixed_config, log_lines)


def _report(label: str) -> None:
    print(f"\n[acceptance] {label}: PASS")


# ---------------------------------------------------------------------------
# C1: use-case reproduction


def test_c1_use_case_reproduction(order_domain_text, order_process_text):
    started = time.perf_counter()
    d = dom.parse_domain(order_domain_text)
    assert len(d.concepts) == 12
    shipping = d.concept("ProcessShippingCost")
    assert shipping is not None and shipping.subprocess is not None

    assert dom.validate_domain(d) == []
    model = proc.parse_process(order_process_text, d)
    assert proc.validate_process(model, d) == []

    p = compile_pipeline(d, model)

    # one serviceTask per leaf concept occurrence, each with a conceptRef
    leaf_occurrences = sum(1 for n in model.body.concept_refs()
                           if d.concept(n.concept).subprocess is None)
    leaf_occurrences += sum(
        1 for n in model.body.concept_refs()
        if d.concept(n.concept).subprocess is not None
        for inner in d.concept(n.concept).subprocess.nodes if inner.kind == "concept")
    tasks = [e for e in bpmn.walk_elements(p.generated) if e.kind == "serviceTask"]
    assert len(tasks) == leaf_occurrences
    assert all(e.concept_uid and e.concept_name for e in tasks)

    # HandlePayment resolves to its two concrete endpoints
    table = deploy.load_bindings(FIXTURES / "bindings.json")
    manifest = deploy.bind_services(d, table, p.am, model.name)
    payment = [r for r in manifest.rows if r.concept == "HandlePayment"]
    assert len(payment) == 1
    assert [e.service for e in payment[0].endpoints] == ["s1", "s2"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"compilation took {elapsed:.2f}s"
    _report("C1 use-case reproduction (12 concepts, clean gen, s1+s2 endpoints)")


# ---------------------------------------------------------------------------
# C2: BPMN round-trip over random process models


_C2_DOMAIN = dom.parse_domain("""
domain Rand {
  service s1 { operation "one" }
  service s2 { operation "two" }
  concept K1 { label "k one" services [s1] }
  concept K2 { label "k two" services [s2] }
  concept K3 { label "k three" services [s1, s2] }
}
""")


def _random_process(rng: random.Random, name: str) -> proc.ProcessModel:
    concepts = ("K1", "K2", "K3")
    nodes, flows = [], []
    prev = "start"
    n = 0

    def fresh(prefix):
        nonlocal n
        n += 1
        return f"{prefix}{n}"

    # 2 nodes are start/end; blocks add 1 or 4 nodes, so stop near the cap
    while len(nodes) + 2 < 20:
        kind = rng.choice(("task", "task", "choice", "fork"))
        if kind == "task":
            nid = fresh("t")
            nodes.append(proc.Node(nid, "concept", rng.choice(concepts)))
            flows.append(proc.Flow(prev, nid))
            prev = nid
        else:
            if len(nodes) + 6 > 20:
                break
            gw = "exclusive" if kind == "choice" else "parallel"
            split, join = fresh("s"), fresh("j")
            nodes.append(proc.Node(split, gw))
            flows.append(proc.Flow(prev, split))
            for _ in range(2):
                nid = fresh("t")
                nodes.append(proc.Node(nid, "concept", rng.choice(concepts)))
                flows.append(proc.Flow(split, nid))
                flows.append(proc.Flow(nid, join))
            nodes.append(proc.Node(join, gw))
            prev = join
        if rng.random() < 0.25:
            break
    if not nodes:
        nid = fresh("t")
        nodes.append(proc.Node(nid, "concept", rng.choice(concepts)))
        flows.append(proc.Flow(prev, nid))
        prev = nid
    flows.append(proc.Flow(prev, "end"))
    body = proc.ProcessBody(
        (proc.Node("start", "start"), *nodes, proc.Node("end", "end")), tuple(flows))
    model = proc.ProcessModel(name, "Rand", body)
    assert len(body.nodes) <= 20
    return model


def test_c2_round_trip_uid_multiset():
    started = time.perf_counter()
    rng = random.Random(20260824)
    for i in range(200):
        model = _random_process(rng, f"P{i}")
        registry = mappings.UidRegistry()
        common = pivot.to_common(model, _C2_DOMAIN, registry)
        am = mappings.build_am(common)
        xml = bpmn.serialize_bpmn(bpmn.generate_bpmn(common, "Rand"))
        parsed = bpmn.parse_bpmn(xml)
        recovered = Counter(e.concept_uid for e in bpmn.walk_elements(parsed)
                            if e.concept_uid is not None)
        assert recovered == Counter(list(am)), f"mismatch in model {i}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"200 round trips took {elapsed:.2f}s"
    _report(f"C2 round-trip uid multiset over 200 random models ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# C3: enrichment sync


def test_c3_enrichment_sync(tmp_path, capsys):
    for name in ("order_handling.dsml", "order_handling.dsproc"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    gen_args = ["gen", str(tmp_path / "order_handling.dsproc"),
                "--domain", str(tmp_path / "order_handling.dsml"),
                "--mappings", str(tmp_path / "mappings.json"),
                "-o", str(tmp_path / "order.bpmn")]
    assert cli.main(gen_args) == 0
    xml = (tmp_path / "order.bpmn").read_text(encoding="utf-8")

    def sync(edited_name):
        return cli.main(["sync", str(tmp_path / "order_handling.dsproc"),
                         "--domain", str(tmp_path / "order_handling.dsml"),
                         "--mappings", str(tmp_path / "mappings.json"),
                         "--edited", str(tmp_path / edited_name),
                         "-o", str(tmp_path / "merged.bpmn")])

    # a technical task added by hand is reported, nothing breaks
    (tmp_path / "added.bpmn").write_text(xml.replace(
        "</bpmn:process>", '  <bpmn:task id="A9"/>\n  </bpmn:process>'),
        encoding="utf-8")
    generated = bpmn.parse_bpmn(xml)
    store = mappings.load_store(tmp_path / "mappings.json")
    result = mappings.merge_enriched(
        generated, bpmn.parse_bpmn((tmp_path / "added.bpmn").read_text()), store.am)
    assert result.technical_additions == ["A9"]
    assert result.broken == []
    assert sync("added.bpmn") == 0

    # stripping one concept reference is flagged as broken, exit code 2
    victim = list(store.am)[0]
    (tmp_path / "stripped.bpmn").write_text(
        xml.replace(f'<dsml:conceptRef uid="{victim}" ', "<skip "), encoding="utf-8")
    result = mappings.merge_enriched(
        generated, bpmn.parse_bpmn((tmp_path / "stripped.bpmn").read_text()), store.am)
    assert result.broken == [victim]
    assert sync("stripped.bpmn") == 2
    capsys.readouterr()
    _report("C3 enrichment sync (technical addition kept, broken uid -> exit 2)")


# ---------------------------------------------------------------------------
# C4: uid stability under a label rename


def test_c4_uid_stability(order_domain_text, order_process_text):
    first = compile_sources(order_domain_text, order_process_text)
    renamed = order_domain_text.replace('label "Approve Order"',
                                        'label "Authorize Order"')
    assert renamed != order_domain_text
    second = compile_sources(renamed, order_process_text, store=first.store)
    assert second.registry.new_allocations == 0
    assert set(second.store.uids.values()) == set(first.store.uids.values())

    diff = [l for l in difflib.unified_diff(
        first.xml.splitlines(), second.xml.splitlines(), lineterm="", n=0)
        if l.startswith(("+", "-")) and not l.startswith(("+++", "---"))]
    assert diff, "the rename must show up in the XML"
    for line in diff:
        assert 'name="A' in line  # only name attributes may differ
    _report(f"C4 uid stability (0 new allocations, {len(diff)} name-only XML lines)")


# ---------------------------------------------------------------------------
# C5: SLA propagation locality


_C5_DOMAIN = """
domain Logistics {
  service ship { operation "ship parcel" }
  sla ShippingTwoDays { max_duration 2 d severity critical }
  concept Shipping { label "Shipping" services [ship] sla ShippingTwoDays }
  concept Other { label "Other" services [ship] }
}
"""

_C5_PROCESS = """process %s uses Logistics {
  node s: concept Shipping
  node o: concept Other
  start -> s
  s -> o
  o -> end
}"""


def test_c5_sla_propagation_locality():
    d = dom.parse_domain(_C5_DOMAIN)
    registry = mappings.UidRegistry()
    am = {}
    for name in ("Sales", "Returns", "Wholesale"):
        model = proc.parse_process(_C5_PROCESS % name, d)
        am.update(mappings.build_am(pivot.to_common(model, d, registry)))

    propagated = dom.propagate_sla(d, am)
    assert len(propagated) == 3  # one per process sharing the concept
    shipping_uids = {uid for uid, e in am.items() if e.concept == "Shipping"}
    assert {uid for uid, _ in propagated} == shipping_uids
    assert all(sla.threshold_ms() == 2 * 24 * 60 * 60 * 1000
               for _uid, sla in propagated)

    # changing the single declaration moves exactly those three thresholds
    tightened = dom.parse_domain(_C5_DOMAIN.replace("max_duration 2 d",
                                                    "max_duration 1 d"))
    after = dict(dom.propagate_sla(tightened, am))
    before = dict(propagated)
    changed = {uid for uid in before if before[uid] != after[uid]}
    assert changed == shipping_uids
    _report("C5 SLA propagation locality (3 processes, 3 entries, local change)")


# ---------------------------------------------------------------------------
# C6: simulator determinism and semantics


_C6_DOMAIN = """
domain Sim {
  service sa { operation "a" }
  service sb { operation "b" }
  concept A { label "A" services [sa] }
  concept B { label "B" services [sb] }
}
"""


def test_c6_simulator_determinism_and_semantics():
    started = time.perf_counter()

    # exact 5-event trace for a fixed-duration single activity
    p = compile_sources(_C6_DOMAIN, "process P uses Sim {\n"
                        "  node a: concept A\n  start -> a\n  a -> end\n}")
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    records = engine.simulate(p.generated, manifest, fixed_config(value=100.0))
    assert [(r.kind, r.ts_ms) for r in records] == [
        ("processStart", 0.0), ("activityStart", 0.0),
        ("serviceInvoke", 100.0), ("activityEnd", 100.0), ("processEnd", 100.0)]

    # same seed, byte-identical logs
    cfg = fixed_config(instances=50, seed=17, value=10.0)
    again = engine.simulate(p.generated, manifest, cfg)
    assert engine.render_log(engine.simulate(p.generated, manifest, cfg), cfg) \
        == engine.render_log(again, cfg)

    # parallel join fires at max(50, 80)
    par = compile_sources(_C6_DOMAIN, """process P uses Sim {
      node f: parallel
      node a: concept A
      node b: concept B
      node j: parallel
      start -> f
      f -> a
      f -> b
      a -> j
      b -> j
      j -> end
    }""")
    table = {"sa": deploy.Binding("sim://a", "p50"),
             "sb": deploy.Binding("sim://b", "p80")}
    par_manifest = deploy.bind_services(par.domain, table, par.am, "P")
    par_cfg = engine.SimulationConfig(
        instance_count=1, seed=1,
        profiles={"p50": engine.DurationProfile("fixed", value=50.0),
                  "p80": engine.DurationProfile("fixed", value=80.0)})
    par_records = engine.simulate(par.generated, par_manifest, par_cfg)
    assert par_records[-1].kind == "processEnd"
    assert par_records[-1].ts_ms == max(50.0, 80.0)

    # exclusive branch frequencies within 2% over 10,000 instances
    choice = compile_sources(_C6_DOMAIN, """process P uses Sim {
      node g: exclusive
      node a: concept A
      node b: concept B
      start -> g
      g -> a when "a"
      g -> b when "b"
      a -> end
      b -> end
    }""")
    gw_uid = next(e.uid for e in choice.common.elements if e.kind == "exclusive")
    out = {f.target: f.id for f in choice.generated.levels[()][1] if f.source == gw_uid}
    a_uid = next(uid for uid, e in choice.am.items() if e.concept == "A")
    b_uid = next(uid for uid, e in choice.am.items() if e.concept == "B")
    choice_manifest = deploy.bind_services(choice.domain, fixed_bindings(choice.domain),
                                           choice.am, "P")
    choice_cfg = fixed_config(instances=10000, seed=123, value=1.0, branch_probs={
        gw_uid: {out[a_uid]: 0.7, out[b_uid]: 0.3}})
    choice_records = engine.simulate(choice.generated, choice_manifest, choice_cfg)
    share = sum(1 for r in choice_records
                if r.kind == "activityStart" and r.concept == "A") / 10000
    assert abs(share - 0.7) <= 0.02, f"observed A share {share}"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"simulation criteria took {elapsed:.2f}s"
    _report(f"C6 simulator determinism & semantics (A share {share:.3f}, "
            f"{elapsed:.2f}s)")


def test_c6_simulated_logs_take_the_canonical_route(order_pipeline, monkeypatch):
    """Every record line that simulate and render_log write, for the fixtures
    and for random C2 models with sampled durations and faults, is in the
    canonical form, so monitor reads dsproc's own logs by the pattern."""
    sim = diagnostics.load_input(FIXTURES / "sim.json", engine.SimulationConfig.from_json)
    manifest = deploy.bind_services(order_pipeline.domain,
                                    deploy.load_bindings(FIXTURES / "bindings.json"),
                                    order_pipeline.am, order_pipeline.model.name)
    logs = [log_lines(engine.simulate(order_pipeline.generated, manifest, sim), sim)]
    rng = random.Random(20261018)
    table = {"s1": deploy.Binding("sim://one", "u"), "s2": deploy.Binding("sim://two", "n")}
    for i in range(10):
        model = _random_process(rng, f"P{i}")
        common = pivot.to_common(model, _C2_DOMAIN, mappings.UidRegistry())
        am = mappings.build_am(common)
        cfg = engine.SimulationConfig(
            instance_count=20, seed=i,
            profiles={"u": engine.DurationProfile("uniform", low=0.0, high=2e-4),
                      "n": engine.DurationProfile("normal", mean=3e-5, stddev=1e4)},
            fault_probs={uid: 0.1 for uid in am})
        generated = bpmn.generate_bpmn(common, "Rand")
        manifest = deploy.bind_services(_C2_DOMAIN, table, am, model.name)
        logs.append(log_lines(engine.simulate(generated, manifest, cfg), cfg))
    expected = [list(map(eventlog._decode_json, lines[1:])) for lines in logs]

    def json_route(line):
        raise AssertionError(f"line not in the canonical form: {line}")
    monkeypatch.setattr(eventlog, "_decode_json", json_route)
    kinds = {"processStart", "activityStart", "serviceInvoke", "activityEnd", "gatewayTaken",
             "processEnd"}
    for lines, values in zip(logs, expected):
        assert [v for _, v in eventlog.read_log(lines[1:], kinds)] == values
    assert sum(map(len, logs)) > 2000


# ---------------------------------------------------------------------------
# C7: monitoring oracle equivalence at 10,000 instances


def test_c7_monitoring_oracle_equivalence():
    p = compile_sources(_C6_DOMAIN, """process P uses Sim {
      node g: exclusive
      node a: concept A
      node b: concept B
      start -> g
      g -> a when "a"
      g -> b when "b"
      a -> end
      b -> end
    }""")
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain, profile="u"),
                                    p.am, "P")
    a_uid = next(uid for uid, e in p.am.items() if e.concept == "A")
    cfg = engine.SimulationConfig(
        instance_count=10000, seed=99,
        profiles={"u": engine.DurationProfile("uniform", low=5.0, high=500.0)},
        fault_probs={a_uid: 0.1})
    cfg.validate()
    records = engine.simulate(p.generated, manifest, cfg)
    lines = log_lines(records, cfg)
    # plant a few technical (unmapped) activity completions too
    for i, d in enumerate((12.5, 80.0, 9.0), start=1):
        lines.append(json.dumps({
            "seq": len(lines) + i, "ts_ms": d, "kind": "activityEnd",
            "process": "P", "instance": i, "element_id": "A9",
            "status": "ok", "duration_ms": d}))

    probes = monitor.ingest(lines, p.store.am)
    report = monitor.build_report(probes, p.store)
    metrics = report["concepts"]

    # brute-force oracle straight from the raw lines
    concept_of = {uid: e.concept for uid, e in p.store.am.items()}
    by_concept, technical = {}, []
    for line in lines[1:]:
        doc = json.loads(line)
        if doc["kind"] != "activityEnd":
            continue
        concept = concept_of.get(doc.get("element_uid"))
        sample = (doc["duration_ms"], doc.get("status", "ok"))
        if concept is None:
            technical.append(sample)
        else:
            by_concept.setdefault(concept, []).append(sample)

    def oracle(samples):
        durations = sorted(s[0] for s in samples)
        n = len(durations)
        return {
            "count": n,
            "faults": sum(1 for s in samples if s[1] == "fault"),
            "mean": sum(durations) / n,
            "min": durations[0],
            "max": durations[-1],
            "p95": durations[max(1, math.ceil(0.95 * n)) - 1],
            "total": sum(durations),
        }

    grand_total = sum(oracle(s)["total"]
                      for s in list(by_concept.values()) + [technical])
    for concept, samples in by_concept.items():
        want = oracle(samples)
        m = metrics[concept]
        assert m["count"] == want["count"]
        assert m["faults"] == want["faults"]
        assert m["mean_ms"] == pytest.approx(want["mean"], rel=1e-9)
        assert m["min_ms"] == pytest.approx(want["min"], rel=1e-9)
        assert m["max_ms"] == pytest.approx(want["max"], rel=1e-9)
        assert m["p95_ms"] == pytest.approx(want["p95"], rel=1e-9)
        assert m["contribution_pct"] == pytest.approx(
            want["total"] / grand_total * 100.0, rel=1e-9)
    tech_want = oracle(technical)
    tech = report["processes"]["P"]["technical"]
    assert tech["count"] == tech_want["count"]
    assert tech["contribution_pct"] == pytest.approx(
        tech_want["total"] / grand_total * 100.0, rel=1e-9)

    total_pct = sum(m["contribution_pct"] for m in metrics.values()) \
        + tech["contribution_pct"]
    assert total_pct == pytest.approx(100.0, abs=1e-6)
    _report("C7 monitoring oracle equivalence (10,000 instances, rel 1e-9)")


# ---------------------------------------------------------------------------
# C8: alert soundness and completeness


def test_c8_alert_soundness_completeness():
    from dsproc.mappings import AmEntry
    am = {"u1": AmEntry("C", "P", "u1")}
    header = '{"log_version": 1, "seed": 0, "rng": "python-mt19937"}'
    lines = [header]
    durations = {1: 100.0, 2: 900.0, 3: 5000.0, 4: 100.0, 5: 100.0,
                 6: 999.0, 7: 5000.0, 8: 100.0}
    seq = 0
    for inst, d in durations.items():
        seq += 1
        lines.append(json.dumps({"seq": seq, "ts_ms": 0.0, "kind": "processStart",
                                 "process": "P", "instance": inst,
                                 "element_id": "P", "status": "ok"}))
        seq += 1
        lines.append(json.dumps({"seq": seq, "ts_ms": d, "kind": "activityEnd",
                                 "process": "P", "instance": inst,
                                 "element_uid": "u1", "element_id": "u1",
                                 "concept": "C", "status": "ok",
                                 "duration_ms": d}))
    probes = monitor.ingest(lines, am)
    sla = dom.Sla("Cap", "max_duration", 1000.0, "ms", "critical")
    alerts = monitor.evaluate_alerts(probes, [("u1", sla)], am)
    assert len(alerts) == 1
    assert alerts[0].instances == [3, 7]  # exactly the planted violators
    assert alerts[0].observed == 5000.0

    # nothing fires when the threshold is generous
    relaxed = monitor.ingest(lines, am)
    assert monitor.evaluate_alerts(relaxed, [
        ("u1", dom.Sla("Cap", "max_duration", 10.0, "s", "critical")),
        ("u1", dom.Sla("Faults", "max_fault_rate", 0.5, "ratio", "warning")),
    ], am) == []
    _report("C8 alert soundness/completeness (violators [3, 7], zero otherwise)")


# ---------------------------------------------------------------------------
# C9: cross-process concept aggregation


def test_c9_cross_process_aggregation():
    d = dom.parse_domain(_C6_DOMAIN)
    store = mappings.MappingStore(domain=d.name)
    registry = store.registry()
    pipelines = []
    for name, extra in (("Intake", "a -> end"), ("Refund", "a -> b\n  b -> end")):
        nodes = "node a: concept A\n"
        if "b" in extra:
            nodes += "  node b: concept B\n"
        model = proc.parse_process(
            f"process {name} uses Sim {{\n  {nodes}  start -> a\n  {extra}\n}}", d)
        common = pivot.to_common(model, d, registry)
        generated = bpmn.generate_bpmn(common, d.name)
        store.update_process(name, mappings.build_am(common), registry)
        pipelines.append((name, generated))
    store.cm = mappings.build_cm(d)

    counts = {}
    lines = []  # the two logs, one after the other in one file
    for (name, generated), instances in zip(pipelines, (60, 40)):
        manifest = deploy.bind_services(d, fixed_bindings(d), store.am, name)
        cfg = fixed_config(instances=instances, seed=5, value=10.0)
        records = engine.simulate(generated, manifest, cfg)
        lines += log_lines(records, cfg)
        counts[name] = sum(1 for r in records
                           if r.kind == "activityEnd" and r.concept == "A")
    probes = monitor.ingest(lines, store.am)

    assert len([c for c in probes.bpms if c == "A"]) == 1
    m = monitor.build_report(probes, store)["concepts"]["A"]
    assert m["count"] == sum(counts.values())  # 60 + 40, exact
    assert m["count"] == 100
    _report("C9 cross-process aggregation (one sample list, 60 + 40 = 100 samples)")
