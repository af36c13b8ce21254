import hashlib
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from dsproc import bpmn, deploy, engine, eventlog

from conftest import compile_sources, fixed_bindings, fixed_config, log_lines

_DOMAIN = """
domain T {
  service sa { operation "do a" }
  service sb { operation "do b" }
  concept A { label "A" services [sa] }
  concept B { label "B" services [sb] }
}
"""

_LINEAR = """process P uses T {
  node a: concept A
  start -> a
  a -> end
}"""

_PARALLEL = """process P uses T {
  node split: parallel
  node a: concept A
  node b: concept B
  node join: parallel
  start -> split
  split -> a
  split -> b
  a -> join
  b -> join
  join -> end
}"""

_CHOICE = """process P uses T {
  node g: exclusive
  node a: concept A
  node b: concept B
  start -> g
  g -> a when "fast"
  g -> b when "slow"
  a -> end
  b -> end
}"""


def _sim(process_text, cfg, bindings=None):
    p = compile_sources(_DOMAIN, process_text)
    table = bindings if bindings is not None else fixed_bindings(p.domain)
    manifest = deploy.bind_services(p.domain, table, p.am, p.model.name)
    return p, manifest, engine.simulate(p.generated, manifest, cfg)


def _split_bindings():
    return {"sa": deploy.Binding("sim://a", "p50"),
            "sb": deploy.Binding("sim://b", "p80")}


def _split_config(instances=1, seed=1, **kwargs):
    cfg = engine.SimulationConfig(
        instance_count=instances, seed=seed,
        profiles={"p50": engine.DurationProfile("fixed", value=50.0),
                  "p80": engine.DurationProfile("fixed", value=80.0)},
        **kwargs)
    cfg.validate()
    return cfg


def test_single_activity_exact_trace():
    _, _, records = _sim(_LINEAR, fixed_config(value=100.0))
    trace = [(r.kind, r.ts_ms) for r in records]
    assert trace == [
        ("processStart", 0.0),
        ("activityStart", 0.0),
        ("serviceInvoke", 100.0),
        ("activityEnd", 100.0),
        ("processEnd", 100.0),
    ]
    end = records[-1]
    assert end.status == "ok" and end.duration_ms == 100.0
    invoke = records[2]
    assert invoke.service == "sa" and invoke.duration_ms == 100.0


def test_same_seed_is_byte_identical():
    cfg = fixed_config(instances=20, seed=7, value=10.0)
    _, _, first = _sim(_PARALLEL, cfg)
    _, _, second = _sim(_PARALLEL, cfg)
    assert engine.render_log(first, cfg) == engine.render_log(second, cfg)


def test_different_seed_changes_the_log():
    mk = lambda seed: engine.SimulationConfig(
        instance_count=5, seed=seed,
        profiles={"p": engine.DurationProfile("uniform", low=1.0, high=9.0)},
        default_profile="p")
    a = engine.render_log(_sim(_LINEAR, mk(1), bindings={
        "sa": deploy.Binding("sim://a"), "sb": deploy.Binding("sim://b")})[2], mk(1))
    b = engine.render_log(_sim(_LINEAR, mk(2), bindings={
        "sa": deploy.Binding("sim://a"), "sb": deploy.Binding("sim://b")})[2], mk(2))
    assert a != b


def test_parallel_join_waits_for_slowest_branch():
    _, _, records = _sim(_PARALLEL, _split_config(), bindings=_split_bindings())
    ends = {r.concept: r.ts_ms for r in records if r.kind == "activityEnd"}
    assert ends == {"A": 50.0, "B": 80.0}
    final = [r for r in records if r.kind == "processEnd"]
    assert len(final) == 1
    # oracle: join fires at max(50, 80)
    assert final[0].ts_ms == max(50.0, 80.0)


def test_seq_increases_and_time_never_goes_backwards():
    cfg = _split_config(instances=30, seed=3)
    _, _, records = _sim(_PARALLEL, cfg, bindings=_split_bindings())
    seqs = [json.loads(line)["seq"] for line in log_lines(records, cfg)[1:]]
    assert seqs == list(range(1, len(records) + 1))
    assert all(a.ts_ms <= b.ts_ms for a, b in zip(records, records[1:]))


def test_records_of_one_timestamp_keep_their_emission_order():
    # each instance starts before its activity does, and an activity's
    # invocation and end, dated when it starts, come before the instance
    # ends; ordered by kind, every one of these pairs would be reversed
    _, _, records = _sim(_LINEAR, fixed_config(instances=2, value=100.0))
    assert [(r.ts_ms, r.kind, r.instance) for r in records] == [
        (0.0, "processStart", 1), (0.0, "processStart", 2),
        (0.0, "activityStart", 1), (0.0, "activityStart", 2),
        (100.0, "serviceInvoke", 1), (100.0, "activityEnd", 1),
        (100.0, "serviceInvoke", 2), (100.0, "activityEnd", 2),
        (100.0, "processEnd", 1), (100.0, "processEnd", 2),
    ]


_TIES_DOMAIN = """
domain T {
  service sa { operation "a" }
  service sb { operation "b" }
  service sc { operation "c" }
  concept A { label "A" services [sa] }
  concept B { label "B" services [sb, sc] }
  concept C { label "C" services [sc] }
  concept Sub {
    label "sub"
    subprocess {
      node x: concept A
      node y: concept C
      start -> x
      x -> y
      y -> end
    }
  }
}
"""

_TIES = """process P uses T {
  node split: parallel
  node s: concept Sub
  node b: concept B
  node join: parallel
  node g: exclusive
  node c: concept C
  node a: concept A
  start -> split
  split -> s
  split -> b
  s -> join
  b -> join
  join -> g
  g -> c when "c"
  g -> a when "a"
  c -> end
  a -> end
}"""


def test_log_of_a_model_full_of_ties_is_pinned():
    # fixed durations of 10, 20 and 30 ms make the events of different
    # instances share timestamps, so the log's bytes pin the order in which
    # simulate takes events of one time, and with it every random draw
    p = compile_sources(_TIES_DOMAIN, _TIES)
    table = {"sa": deploy.Binding("sim://a", "p10"), "sb": deploy.Binding("sim://b", "p20"),
             "sc": deploy.Binding("sim://c", "p30")}
    manifest = deploy.bind_services(p.domain, table, p.am, "P")
    gw = next(e.uid for e in p.common.elements if e.kind == "exclusive")
    b_uid = next(uid for uid, e in p.am.items() if e.concept == "B")
    cfg = engine.SimulationConfig(
        instance_count=8, seed=1,
        profiles={f"p{ms}": engine.DurationProfile("fixed", value=float(ms))
                  for ms in (10, 20, 30)},
        branch_probs={gw: {f.id: 0.6 if i == 0 else 0.4
                           for i, f in enumerate(f for f in p.generated.levels[()][1]
                                                 if f.source == gw)}},
        fault_probs={b_uid: 0.3})
    records = engine.simulate(p.generated, manifest, cfg)
    instances_at = {}
    for r in records:
        instances_at.setdefault(r.ts_ms, set()).add(r.instance)
    assert max(map(len, instances_at.values())) == 8
    kinds = {(r.kind, r.status) for r in records}
    assert {("gatewayTaken", None), ("activityEnd", "fault"), ("processEnd", "fault"),
            ("processEnd", "ok")} <= kinds
    assert len({r.element_id for r in records if r.kind == "gatewayTaken"}) == 2
    text = engine.render_log(records, cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "88fba31cabf606c8d612ea85fc619ecc8319f17ef15c432f7865bdfb8c4ecab8")


def test_every_instance_gets_start_and_end():
    cfg = _split_config(instances=25, seed=9)
    _, _, records = _sim(_CHOICE, cfg, bindings=_split_bindings())
    starts = [r.instance for r in records if r.kind == "processStart"]
    ends = [r.instance for r in records if r.kind == "processEnd"]
    assert sorted(starts) == sorted(ends) == list(range(1, 26))


def test_gateway_taken_names_a_real_flow():
    p = compile_sources(_DOMAIN, _CHOICE)
    manifest = deploy.bind_services(p.domain, _split_bindings(), p.am, "P")
    cfg = _split_config(instances=10, seed=4)
    records = engine.simulate(p.generated, manifest, cfg)
    flow_ids = {f.id for f in p.generated.levels[()][1]}
    taken = [r for r in records if r.kind == "gatewayTaken"]
    assert len(taken) == 10  # one decision per instance
    assert all(r.element_id in flow_ids for r in taken)


def test_no_gateway_event_for_single_outgoing():
    _, _, records = _sim(_LINEAR, fixed_config(value=1.0))
    assert not any(r.kind == "gatewayTaken" for r in records)


def test_branch_probabilities_shift_the_split():
    p = compile_sources(_DOMAIN, _CHOICE)
    manifest = deploy.bind_services(p.domain, _split_bindings(), p.am, "P")
    gw_uid = next(e.uid for e in p.common.elements if e.kind == "exclusive")
    out = {f.target: f.id for f in p.generated.levels[()][1] if f.source == gw_uid}
    a_uid = next(uid for uid, e in p.am.items() if e.concept == "A")
    b_uid = next(uid for uid, e in p.am.items() if e.concept == "B")
    cfg = _split_config(instances=2000, seed=11, branch_probs={
        gw_uid: {out[a_uid]: 0.9, out[b_uid]: 0.1}})
    records = engine.simulate(p.generated, manifest, cfg)
    share_a = sum(1 for r in records
                  if r.kind == "activityStart" and r.concept == "A") / 2000
    assert abs(share_a - 0.9) < 0.03


def test_fault_ends_instance_with_fault_status():
    p = compile_sources(_DOMAIN, _LINEAR)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    a_uid = next(uid for uid, e in p.am.items() if e.concept == "A")
    cfg = fixed_config(instances=3, value=10.0, fault_probs={a_uid: 1.0})
    records = engine.simulate(p.generated, manifest, cfg)
    for r in records:
        if r.kind in ("activityEnd", "processEnd"):
            assert r.status == "fault"
    assert sum(1 for r in records if r.kind == "processEnd") == 3


def test_fault_rate_tracks_probability():
    p = compile_sources(_DOMAIN, _LINEAR)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    a_uid = next(uid for uid, e in p.am.items() if e.concept == "A")
    cfg = fixed_config(instances=3000, seed=5, value=1.0,
                       fault_probs={a_uid: 0.25})
    records = engine.simulate(p.generated, manifest, cfg)
    faults = sum(1 for r in records if r.kind == "processEnd" and r.status == "fault")
    assert abs(faults / 3000 - 0.25) < 0.03


def test_subprocess_resumes_outer_flow():
    domain = """
    domain T {
      service sa { operation "a" }
      service sb { operation "b" }
      concept A { label "A" services [sa] }
      concept Outer {
        label "outer"
        subprocess {
          node x: concept A
          start -> x
          x -> end
        }
      }
      concept B { label "B" services [sb] }
    }
    """
    process = """process P uses T {
      node o: concept Outer
      node b: concept B
      start -> o
      o -> b
      b -> end
    }"""
    p = compile_sources(domain, process)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    records = engine.simulate(p.generated, manifest, fixed_config(value=30.0))
    by_kind = [(r.kind, r.concept, r.ts_ms) for r in records
               if r.kind in ("activityStart", "activityEnd")]
    # inner activity runs 0-30; outer continuation B runs 30-60
    assert by_kind == [
        ("activityStart", "A", 0.0), ("activityEnd", "A", 30.0),
        ("activityStart", "B", 30.0), ("activityEnd", "B", 60.0),
    ]
    assert records[-1].kind == "processEnd" and records[-1].ts_ms == 60.0


def test_unsatisfied_join_raises_deadlock():
    process = """process P uses T {
      node g: exclusive
      node a: concept A
      node b: concept B
      node join: parallel
      start -> g
      g -> a when "left"
      g -> b when "right"
      a -> join
      b -> join
      join -> end
    }"""
    p = compile_sources(_DOMAIN, process)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    with pytest.raises(engine.SimulationError) as exc:
        engine.simulate(p.generated, manifest, fixed_config(instances=3, value=1.0))
    # the message names the join (u5) that each instance's one token waits at
    assert str(exc.value) == "deadlock: join 'u5' of P never satisfied for instance(s) 1, 2, 3"


def test_each_token_entering_a_subprocess_starts_its_own_run_of_it():
    # the split sends one token into o at once and one after b; o's run for
    # the first (x, 0-80) is still going when the second enters it (x, 50-130)
    domain = """
    domain T {
      service sa { operation "a" }
      service sb { operation "b" }
      concept A { label "A" services [sa] }
      concept B { label "B" services [sb] }
      concept Outer {
        label "outer"
        subprocess {
          node x: concept B
          start -> x
          x -> end
        }
      }
    }
    """
    process = """process P uses T {
      node split: parallel
      node o: concept Outer
      node a: concept A
      start -> split
      split -> o
      split -> a
      a -> o
      o -> end
    }"""
    p = compile_sources(domain, process)
    manifest = deploy.bind_services(p.domain, _split_bindings(), p.am, "P")
    records = engine.simulate(p.generated, manifest, _split_config(instances=2))
    for inst in (1, 2):
        trace = [(r.kind, r.concept, r.ts_ms) for r in records
                 if r.instance == inst and r.kind in ("activityEnd", "processEnd")]
        assert trace == [("activityEnd", "A", 50.0), ("activityEnd", "B", 80.0),
                         ("activityEnd", "B", 130.0), ("processEnd", None, 130.0)]


def test_multi_service_activity_invokes_each_endpoint_in_order(order_pipeline):
    manifest = deploy.bind_services(order_pipeline.domain,
                                    fixed_bindings(order_pipeline.domain),
                                    order_pipeline.am, "HandleOrder")
    uid = next(uid for uid, e in order_pipeline.am.items() if e.concept == "HandlePayment")
    branch = _handle_order_branch_probs(order_pipeline)
    cfg = fixed_config(instances=1, value=10.0, branch_probs=branch)
    records = engine.simulate(order_pipeline.generated, manifest, cfg)
    invokes = [r for r in records if r.kind == "serviceInvoke" and r.element_uid == uid]
    assert [r.service for r in invokes] == ["s1", "s2"]
    end = next(r for r in records if r.kind == "activityEnd" and r.element_uid == uid)
    # activity duration is the sum of its per-endpoint samples
    assert end.duration_ms == sum(r.duration_ms for r in invokes)


def _handle_order_branch_probs(p):
    """Deterministic branch choices for the order fixture's gateways."""
    probs = {}
    elements, flows = p.generated.levels[()]
    for e in elements:
        if e.kind != "exclusiveGateway":
            continue
        out = [f for f in flows if f.source == e.id]
        if len(out) > 1:
            probs[e.id] = {f.id: (1.0 if i == 0 else 0.0)
                           for i, f in enumerate(out)}
    return probs


def test_log_render_parse_round_trip():
    cfg = fixed_config(instances=2, value=5.0)
    _, _, records = _sim(_LINEAR, cfg)
    lines = log_lines(records, cfg)
    header, *parsed = [values for _, values
                       in eventlog.read_log(lines, {record.kind for record in records})]
    assert header == {"log_version": 1, "seed": 1, "rng": "python-mt19937"}
    assert parsed == records
    assert [json.loads(l)["seq"] for l in lines[1:]] == list(range(1, len(records) + 1))
    # field order in each line is stable
    for line in lines[1:]:
        keys = list(json.loads(line))
        assert keys == sorted(keys, key=eventlog._FIELD_ORDER.index)


def test_unsupported_log_version_rejected():
    with pytest.raises(Exception, match="log version"):
        list(eventlog.read_log(['{"log_version": 99, "seed": 0, "rng": "x"}'], ()))


def test_normal_profile_matches_box_muller_oracle():
    profile = engine.DurationProfile("normal", mean=200.0, stddev=40.0)
    sample = profile.sample(random.Random(42))
    # independent oracle: same draws, Box-Muller by hand
    r = random.Random(42)
    u1, u2 = r.random(), r.random()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert sample == pytest.approx(max(0.0, 200.0 + 40.0 * z))


@given(st.integers(0, 2**32), st.floats(0, 100), st.floats(0, 100))
def test_uniform_sample_stays_in_range(seed, low, span):
    profile = engine.DurationProfile("uniform", low=low, high=low + span)
    d = profile.sample(random.Random(seed))
    assert low <= d <= low + span


def test_config_validation_rejects_bad_inputs():
    with pytest.raises(engine.SimulationError, match="sum"):
        engine.SimulationConfig(branch_probs={"g": {"f1": 0.5, "f2": 0.6}}).validate()
    with pytest.raises(engine.SimulationError, match="instance_count"):
        engine.SimulationConfig(instance_count=0).validate()
    with pytest.raises(engine.SimulationError, match="profile"):
        engine.SimulationConfig(default_profile="nope").validate()
    with pytest.raises(engine.SimulationError, match="kind"):
        engine.DurationProfile("weird")


def test_branch_probabilities_are_added_left_to_right():
    # sum() compensates floats from Python 3.12 on, and would say 1.0010000000000001
    probs = dict(zip(("f1", "f2", "f3", "f4", "f5"), (0.1, 0.2, 0.3, 0.4, 0.001)))
    with pytest.raises(engine.SimulationError) as exc:
        engine.SimulationConfig(branch_probs={"g": probs}).validate()
    assert str(exc.value) == "branch probabilities for gateway 'g' sum to 1.001, not 1"


@pytest.mark.parametrize("kind, numbers, message", [
    ("fixed", {"value": math.nan}, "fixed duration must be >= 0"),
    ("fixed", {"value": math.inf}, "fixed profile requires a finite value"),
    ("uniform", {"low": math.inf, "high": math.inf}, "uniform profile requires a finite high"),
    ("uniform", {"low": 0.0, "high": math.inf}, "uniform profile requires a finite high"),
    ("normal", {"mean": math.nan, "stddev": 1.0},
     "normal profile requires mean >= 0 and stddev >= 0"),
    ("normal", {"mean": 1.0, "stddev": math.nan},
     "normal profile requires mean >= 0 and stddev >= 0"),
    ("normal", {"mean": math.inf, "stddev": 1.0},
     "normal profile requires a finite mean and stddev"),
    ("normal", {"mean": 1.0, "stddev": math.inf},
     "normal profile requires a finite mean and stddev"),
], ids=["fixed-nan", "fixed-inf", "uniform-inf-inf", "uniform-to-inf", "normal-nan-mean",
        "normal-nan-stddev", "normal-inf-mean", "normal-inf-stddev"])
def test_a_profile_that_could_draw_nan_is_rejected(kind, numbers, message):
    # a NaN duration would date events at NaN, which no time order places; a
    # normal profile with an infinite mean or stddev draws inf or, from inf - inf, NaN;
    # an infinite fixed value makes the report's shares inf / inf, NaN
    with pytest.raises(engine.SimulationError) as exc:
        engine.DurationProfile(kind, **numbers)
    assert str(exc.value) == message


def test_branch_probs_must_cover_gateway_flows():
    p = compile_sources(_DOMAIN, _CHOICE)
    manifest = deploy.bind_services(p.domain, _split_bindings(), p.am, "P")
    gw_uid = next(e.uid for e in p.common.elements if e.kind == "exclusive")
    out = [f.id for f in p.generated.levels[()][1] if f.source == gw_uid]
    cfg = _split_config(branch_probs={gw_uid: {out[0]: 1.0}})
    with pytest.raises(engine.SimulationError, match="miss"):
        engine.simulate(p.generated, manifest, cfg)


def test_fault_probs_name_a_technical_task_by_its_id():
    p = compile_sources(_DOMAIN, _LINEAR)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    a_uid = next(uid for uid, e in p.am.items() if e.concept == "A")
    model = p.generated
    elements, flows = model.levels[()]
    i, flow = next((i, f) for i, f in enumerate(flows) if f.source == a_uid)
    elements.append(bpmn.BpmnElement("A9", "task"))
    flows.append(bpmn.SequenceFlow("f_A9", "A9", flow.target))
    flows[i] = flow._replace(target="A9")
    records = engine.simulate(model, manifest, fixed_config(instances=2, fault_probs={"A9": 1.0}))
    ends = [r.status for r in records if r.kind == "processEnd"]
    assert ends == ["fault", "fault"]


def test_config_json_round_trip(tmp_path):
    text = json.dumps({
        "instance_count": 4, "seed": 9,
        "profiles": {"p": {"kind": "uniform", "low": 1, "high": 2}},
        "default_profile": "p",
        "fault_probs": {"u1": 0.5},
    })
    cfg = engine.SimulationConfig.from_json(text)
    assert cfg.instance_count == 4
    assert cfg.profiles["p"].kind == "uniform"
    assert cfg.fault_probs == {"u1": 0.5}


_LOOP = """process P uses T {
  node a: concept A
  node g: exclusive
  start -> a
  a -> g
  g -> a when "again"
  g -> end when "done"
}"""

_LOOP_DOMAIN = """
domain T {
  service sa { operation "a" }
  concept A { label "A" services [sa] }
  concept Outer {
    label "outer"
    subprocess {
      node x: concept A
      node h: exclusive
      start -> x
      x -> h
      h -> x when "again"
      h -> end when "done"
    }
  }
}
"""

_LOOP_OUTER = """process P uses T {
  node o: concept Outer
  node g: exclusive
  start -> o
  o -> g
  g -> o when "again"
  g -> end when "done"
}"""


def _loop_probs(level, again):
    """The loop body of a model's ``(elements, flows)`` level, and branch
    probabilities that send a token back to it with probability ``again``."""
    elements, flows = level
    gw = next(e for e in elements if e.kind == "exclusiveGateway")
    body = next(e for e in elements if e.kind in ("serviceTask", "subProcess"))
    return body, {gw.id: {f.id: again if f.target == body.id else 1.0 - again
                          for f in flows if f.source == gw.id}}


def test_loop_inside_a_subprocess_is_rejected_at_its_level():
    p = compile_sources(_LOOP_DOMAIN, _LOOP_OUTER)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    outer, probs = _loop_probs(p.generated.levels[()], 0.5)
    x, inner = _loop_probs(p.generated.levels[(outer.id,)], 1.0)
    cfg = fixed_config(branch_probs={**probs, **inner})
    with pytest.raises(engine.SimulationError, match=rf"^P/{outer.id}: element {x.id!r} is on"):
        engine.simulate(p.generated, manifest, cfg)


@pytest.mark.parametrize("again, fault", [(0.5, False), (1.0, True)],
                         ids=["nonzero-exit", "fault-exit"])
def test_loop_with_a_way_out_runs(again, fault):
    p = compile_sources(_DOMAIN, _LOOP)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    a, probs = _loop_probs(p.generated.levels[()], again)
    cfg = fixed_config(instances=20, branch_probs=probs,
                       fault_probs={a.concept_uid: 0.3} if fault else {})
    records = engine.simulate(p.generated, manifest, cfg)
    assert sum(1 for r in records if r.kind == "processEnd") == 20


def test_loop_left_by_a_fault_inside_a_subprocess_runs():
    p = compile_sources(_LOOP_DOMAIN, _LOOP_OUTER)
    manifest = deploy.bind_services(p.domain, fixed_bindings(p.domain), p.am, "P")
    outer, probs = _loop_probs(p.generated.levels[()], 1.0)
    x, inner = _loop_probs(p.generated.levels[(outer.id,)], 0.0)
    cfg = fixed_config(instances=20, branch_probs={**probs, **inner},
                       fault_probs={x.concept_uid: 0.3})
    records = engine.simulate(p.generated, manifest, cfg)
    ends = [r for r in records if r.kind == "processEnd"]
    assert len(ends) == 20 and all(r.status == "fault" for r in ends)


@pytest.mark.parametrize("faulty", ["A", "B"])
def test_faulted_instance_closes_at_its_last_event_while_a_sibling_waits(faulty):
    # A takes 50 ms and B 80 ms; one faults, the other reaches the join and
    # waits there for a token that never comes
    p = compile_sources(_DOMAIN, _PARALLEL)
    uid = next(uid for uid, e in p.am.items() if e.concept == faulty)
    manifest = deploy.bind_services(p.domain, _split_bindings(), p.am, p.model.name)
    records = engine.simulate(p.generated, manifest,
                              _split_config(instances=3, fault_probs={uid: 1.0}))
    for inst in (1, 2, 3):
        mine = [r for r in records if r.instance == inst]
        end = next(r for r in mine if r.kind == "processEnd")
        assert end.status == "fault"
        assert end.ts_ms == max(r.ts_ms for r in mine if r is not end) == 80.0
        assert end.duration_ms == end.ts_ms
