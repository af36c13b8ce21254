import json

import pytest

from dsproc import deploy

from conftest import FIXTURES, fixed_bindings


@pytest.fixture
def bindings():
    return deploy.load_bindings(FIXTURES / "bindings.json")


def _manifest(order_pipeline, bindings):
    return deploy.bind_services(order_pipeline.domain, bindings,
                                order_pipeline.am, order_pipeline.model.name)


def test_manifest_has_one_row_per_mapped_activity(order_pipeline, bindings):
    manifest = _manifest(order_pipeline, bindings)
    assert sorted(r.uid for r in manifest.rows) == sorted(order_pipeline.am)


def test_payment_activity_resolves_both_endpoints(order_pipeline, bindings):
    manifest = _manifest(order_pipeline, bindings)
    payment_rows = [r for r in manifest.rows if r.concept == "HandlePayment"]
    assert len(payment_rows) == 1
    row = payment_rows[0]
    assert row.services == ["s1", "s2"]
    assert [e.service for e in row.endpoints] == ["s1", "s2"]
    for ep in row.endpoints:
        assert ep.endpoint == bindings[ep.service].endpoint


def test_endpoint_chain_matches_domain_oracle(order_pipeline, bindings):
    # oracle: recompute uid -> concept -> services -> endpoints by hand
    manifest = _manifest(order_pipeline, bindings)
    d = order_pipeline.domain
    for r in manifest.rows:
        concept = d.concept(order_pipeline.am[r.uid].concept)
        assert r.services == list(concept.service_refs)
        assert [(e.service, e.endpoint) for e in r.endpoints] == \
            [(s, bindings[s].endpoint) for s in concept.service_refs]


def test_missing_binding_lists_all_unbound_services(order_pipeline, bindings):
    partial = dict(bindings)
    del partial["s1"]
    del partial["svcShip"]
    with pytest.raises(deploy.BindingError) as exc:
        _manifest(order_pipeline, dict(partial))
    assert str(exc.value) == "unbound abstract services: s1, svcShip"


def test_binding_for_unknown_service_rejected(order_pipeline, bindings):
    bad = dict(bindings)
    bad["ghost"] = deploy.Binding("sim://ghost")
    with pytest.raises(deploy.BindingError, match="ghost"):
        _manifest(order_pipeline, bad)


def test_unknown_process_vs_empty_process(order_pipeline, bindings):
    with pytest.raises(deploy.BindingError, match="unknown process"):
        deploy.bind_services(order_pipeline.domain, bindings, order_pipeline.am,
                             "Nope", known_processes=["HandleOrder"])
    # a known process with no mapped activities yields an empty manifest
    empty = deploy.bind_services(order_pipeline.domain, bindings,
                                 order_pipeline.am, "Idle",
                                 known_processes=["HandleOrder", "Idle"])
    assert empty.rows == []


def test_manifest_json_round_trip(order_pipeline, bindings):
    manifest = _manifest(order_pipeline, bindings)
    text = deploy.emit_manifest(manifest)
    again = deploy.parse_manifest(text)
    assert deploy.emit_manifest(again) == text
    doc = json.loads(text)
    assert doc["process"] == "HandleOrder"
    assert set(doc["activities"]) == set(order_pipeline.am)


def test_manifest_file_round_trip(tmp_path, order_pipeline, bindings):
    manifest = _manifest(order_pipeline, bindings)
    path = tmp_path / "manifest.json"
    path.write_text(deploy.emit_manifest(manifest), encoding="utf-8")
    loaded = deploy.load_manifest(path)
    assert deploy.emit_manifest(loaded) == deploy.emit_manifest(manifest)


def test_profiles_flow_from_bindings(order_pipeline):
    table = fixed_bindings(order_pipeline.domain, profile="p42")
    manifest = deploy.bind_services(order_pipeline.domain, table,
                                    order_pipeline.am, "HandleOrder")
    for r in manifest.rows:
        assert all(e.profile == "p42" for e in r.endpoints)
