import json

import pytest
from hypothesis import given, strategies as st

from dsproc import bpmn, mappings
from dsproc import process as proc
from dsproc.mappings import AmEntry, MappingError, UidRegistry, build_cm, merge_enriched

from conftest import compile_pipeline


def test_cm_maps_payment_concept_to_both_services(order_domain):
    cm = build_cm(order_domain)
    assert cm["HandlePayment"] == ["s1", "s2"]


def test_cm_keys_are_exactly_service_backed_concepts(order_domain):
    cm = build_cm(order_domain)
    # oracle: recompute from the domain object directly
    expected = {c.name for c in order_domain.concepts if c.service_refs}
    assert set(cm) == expected
    for name, services in cm.items():
        assert services == list(order_domain.concept(name).service_refs)


def test_registry_hands_out_sequential_uids():
    r = UidRegistry()
    assert r.uid_for("P/a") == "u1"
    assert r.uid_for("P/b") == "u2"
    assert r.uid_for("P/a") == "u1"
    assert r.new_allocations == 2


def test_registry_resumes_after_persisted_entries():
    r = UidRegistry({"P/a": "u1", "P/b": "u7"})
    assert r.uid_for("P/a") == "u1"
    assert r.new_allocations == 0
    fresh = r.uid_for("P/c")
    assert fresh not in ("u1", "u7")
    assert r.new_allocations == 1


def test_registry_rejects_non_injective_state():
    with pytest.raises(MappingError):
        UidRegistry({"P/a": "u1", "P/b": "u1"})


@given(st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30))
def test_registry_is_injective_property(paths):
    r = UidRegistry()
    assigned = {p: r.uid_for(p) for p in paths}
    uids = list(assigned.values())
    assert len(set(uids)) == len(uids)
    # idempotent: asking again changes nothing
    for p, uid in assigned.items():
        assert r.uid_for(p) == uid


def _pivot_elements(m):
    for e in m.elements:
        yield e
        if e.inner is not None:
            yield from _pivot_elements(e.inner)


def test_build_am_defaults_to_leaf_activities(order_pipeline):
    am = order_pipeline.am
    container_uids = {e.uid for e in order_pipeline.common.elements
                      if e.kind == "subprocess"}
    assert container_uids
    assert not any(uid in am for uid in container_uids)
    # oracle: leaf uids are exactly the activity-kind tagged elements
    expected = {e.uid for e in _pivot_elements(order_pipeline.common)
                if e.kind == "activity" and e.concept is not None}
    assert set(am) == expected


def test_am_entries_record_process_and_element(order_pipeline):
    for uid, entry in order_pipeline.am.items():
        assert entry.element == uid
        assert entry.process == order_pipeline.model.name


def test_merge_clean_edit_reports_nothing(order_pipeline):
    edited = bpmn.parse_bpmn(order_pipeline.xml)
    result = merge_enriched(order_pipeline.generated, edited, order_pipeline.am)
    assert result.technical_additions == []
    assert result.broken == []


def test_merge_reports_technical_addition(order_pipeline):
    enriched = order_pipeline.xml.replace(
        "</bpmn:process>",
        '  <bpmn:task id="A9"/>\n  </bpmn:process>')
    result = merge_enriched(order_pipeline.generated, bpmn.parse_bpmn(enriched),
                            order_pipeline.am)
    assert result.technical_additions == ["A9"]
    assert result.broken == []


def test_merge_reports_the_activities_the_model_added_but_not_their_container(
        order_domain, order_process_text):
    # the file was generated before `fulfill`, a subprocess concept, joined the model
    before = (order_process_text.replace("  node fulfill: concept ProcessShippingCost\n", "")
              .replace("approve -> fulfill", "approve -> end")
              .replace("  fulfill -> end\n", ""))
    old = compile_pipeline(order_domain, proc.parse_process(before, order_domain))
    loaded_am = dict(old.store.am)
    new = compile_pipeline(order_domain, proc.parse_process(order_process_text, order_domain),
                           old.store)
    result = merge_enriched(new.generated, bpmn.parse_bpmn(old.xml), loaded_am)
    container = [e for e in bpmn.walk_elements(new.generated) if e.kind == "subProcess"]
    assert len(container) == 1
    assert result.added == [e.concept_uid for e in new.generated.levels[(container[0].id,)][0]
                            if e.concept_uid]
    assert result.added and set(result.added) == set(new.store.am) - set(loaded_am)
    assert (result.technical_additions, result.broken) == ([], [])


def test_merge_reports_broken_uid(order_pipeline):
    uid = list(order_pipeline.am)[0]
    victim = {e.id: e for e in bpmn.walk_elements(order_pipeline.generated)}[uid]
    stripped = order_pipeline.xml.replace(f'<dsml:conceptRef uid="{uid}" ', "<skip ")
    result = merge_enriched(order_pipeline.generated, bpmn.parse_bpmn(stripped),
                            order_pipeline.am)
    assert result.broken == [uid]
    # the element itself is still there, so it is not a technical addition
    assert victim.id not in result.technical_additions


def test_store_json_round_trip(order_pipeline):
    text = order_pipeline.store.to_json()
    again = mappings.store_from_json(text)
    assert again.to_json() == text
    doc = json.loads(text)
    assert set(doc) == {"domain", "cm", "am", "uids"}
    assert doc["domain"] == "OrderHandling"


def test_store_file_round_trip(tmp_path, order_pipeline):
    path = tmp_path / "mappings.json"
    mappings.save_store(order_pipeline.store, path)
    loaded = mappings.load_store(path)
    assert loaded.to_json() == order_pipeline.store.to_json()


def test_update_process_keeps_other_processes():
    store = mappings.MappingStore(domain="D")
    store.am = {
        "u1": AmEntry("A", "P", "u1"),
        "u2": AmEntry("B", "Q", "u2"),
    }
    registry = UidRegistry({"P/a": "u1", "Q/b": "u2"})
    store.update_process("P", {"u3": AmEntry("C", "P", "u3")}, registry)
    assert "u2" in store.am
    assert "u1" not in store.am
    assert "u3" in store.am


def test_concept_for_activity(order_pipeline):
    uid = list(order_pipeline.am)[0]
    concept_of = {e.uid: e.concept for e in _pivot_elements(order_pipeline.common)}
    assert order_pipeline.am.get(uid).concept == concept_of[uid]
    assert order_pipeline.am.get("nope") is None
