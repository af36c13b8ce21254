import re

import pytest
from hypothesis import given, settings

from dsproc import domain as dom
from dsproc.diagnostics import ParseError

from models import worlds


def test_concept_with_two_services():
    d = dom.parse_domain("""
        domain Pay {
          service s1 { operation "authorize" }
          service s2 { operation "settle" }
          concept HandlePayment { label "Handle Payment" services [s1, s2] }
        }
    """)
    c = d.concept("HandlePayment")
    assert c is not None
    assert c.service_refs == ("s1", "s2")


def test_empty_domain():
    d = dom.parse_domain("domain Empty { }")
    assert d.name == "Empty"
    assert d.concepts == ()
    assert d.services == ()


def test_order_handling_fixture_concept_count(order_domain_text, order_domain):
    # independent oracle: count concept declarations in the raw fixture text
    declared = re.findall(r"^\s*concept\s+(\w+)", order_domain_text, re.MULTILINE)
    assert len(declared) == 12
    assert len(order_domain.concepts) == 12
    assert {c.name for c in order_domain.concepts} == set(declared)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        dom.parse_domain('domain D {\n  concept X { }\n}')
    assert exc.value.line == 2


def _first_error(d):
    return next(x for x in dom.validate_domain(d) if x.severity == "error")


def test_duplicate_concept_rejected():
    src = """
        domain D {
          service s { operation "op" }
          concept A { label "a" services [s] }
          concept A { label "a again" services [s] }
        }
    """
    assert re.search("duplicate concept", _first_error(dom.parse_domain(src)).message)


def test_unresolved_service_rejected():
    d = dom.parse_domain('domain D { concept A { label "a" services [nope] } }')
    assert re.search("undeclared service", _first_error(d).message)


def test_dependency_cycle_rejected():
    src = """
        domain D {
          service s { operation "op" }
          concept A { label "a" services [s] depends_on [B] }
          concept B { label "b" services [s] depends_on [A] }
        }
    """
    assert re.search("cycle", _first_error(dom.parse_domain(src)).message)


def _oracle_has_cycle(edges):
    # independent DFS cycle finder
    state = {}

    def visit(n):
        if state.get(n) == 1:
            return False
        if state.get(n) == 0:
            return True
        state[n] = 0
        if any(visit(m) for m in edges.get(n, [])):
            return True
        state[n] = 1
        return False

    return any(visit(n) for n in list(edges))


def test_validate_domain_cycle_diagnostic_matches_dfs_oracle():
    d = dom.Domain(
        name="D",
        concepts=(
            dom.DSConcept("A", "a", service_refs=("s",), depends_on=("B",)),
            dom.DSConcept("B", "b", service_refs=("s",), depends_on=("A",)),
        ),
        services=(dom.DSService("s", "op"),),
    )
    diags = dom.validate_domain(d)
    cycle_diags = [x for x in diags if "cycle" in x.message]
    assert len(cycle_diags) == 1
    assert "A" in cycle_diags[0].message and "B" in cycle_diags[0].message
    assert _oracle_has_cycle({"A": ["B"], "B": ["A"]})


def test_validate_domain_clean_fixture(order_domain):
    assert dom.validate_domain(order_domain) == []


def test_validate_domain_flags_undeclared_service():
    d = dom.Domain("D", concepts=(dom.DSConcept("A", "a", service_refs=("ghost",)),))
    diags = dom.validate_domain(d)
    assert len([x for x in diags if x.severity == "error"]) == 1
    assert "ghost" in diags[0].message


def test_repeated_names_resolve_to_the_first_declaration():
    concepts = (dom.DSConcept("A", "first", service_refs=("s",)),
                dom.DSConcept("A", "second", service_refs=("s",)))
    services = (dom.DSService("s", "op1"), dom.DSService("s", "op2"))
    slas = (dom.Sla("L", "max_duration", 1.0, "s", "info"),
            dom.Sla("L", "max_duration", 2.0, "s", "info"))
    d = dom.Domain("D", concepts, services, slas)
    assert d.concept("A") is concepts[0]
    assert d.service("s") is services[0]
    assert d.sla("L") is slas[0]
    assert d.concept("s") is None and d.service("A") is None and d.sla("A") is None
    assert [x.message for x in dom.validate_domain(d)] == [
        "duplicate concept name 'A'", "duplicate service name 's'", "duplicate SLA name 'L'"]


def test_lookup_indexes_take_no_part_in_equality_or_hash(order_domain):
    d = dom.Domain(order_domain.name, order_domain.concepts, order_domain.services,
                   order_domain.slas)
    # with its indexes emptied, d still compares, hashes and prints as the tuples say
    d._concepts, d._services, d._slas = {}, {}, {}
    assert d.concept(d.concepts[0].name) is None
    assert d == order_domain and hash(d) == hash(order_domain)
    assert repr(d) == (f"Domain(name={d.name!r}, concepts={d.concepts!r}, "
                       f"services={d.services!r}, slas={d.slas!r})")
    assert d != dom.Domain(d.name, d.concepts[1:], d.services, d.slas)


def test_declaration_lines_take_no_part_in_equality_or_hash(order_domain, order_domain_text):
    again = dom.parse_domain("\n" * 100 + order_domain_text)
    for before, after in zip(order_domain.concepts + order_domain.services + order_domain.slas,
                             again.concepts + again.services + again.slas):
        assert after.line == before.line + 100
        assert after == before and hash(after) == hash(before) and repr(after) == repr(before)
    assert again == order_domain and hash(again) == hash(order_domain)


def test_fixture_round_trip(order_domain):
    again = dom.parse_domain(dom.serialize_domain(order_domain))
    assert again == order_domain


@settings(deadline=None)
@given(worlds())
def test_round_trip_property(world):
    again = dom.parse_domain(dom.serialize_domain(world.domain))
    assert again == world.domain
    assert [x for x in dom.validate_domain(again) if x.severity == "error"] == []


def test_propagate_sla_empty_when_no_slas():
    from dsproc.mappings import AmEntry
    d = dom.Domain("D", concepts=(dom.DSConcept("A", "a", service_refs=("s",)),),
                   services=(dom.DSService("s", "op"),))
    am = {"u1": AmEntry("A", "P")}
    assert dom.propagate_sla(d, am) == []


def test_propagate_sla_size_matches_sla_carrying_mappings(order_pipeline):
    d = order_pipeline.domain
    am = order_pipeline.am
    out = dom.propagate_sla(d, am)
    expected = sum(
        1 for e in am.values()
        if d.concept(e.concept).sla_ref is not None)
    assert len(out) == expected
    assert expected > 0


def test_propagate_sla_change_is_local(order_domain_text, order_pipeline):
    before = dict(dom.propagate_sla(order_pipeline.domain, order_pipeline.am))
    changed = dom.parse_domain(order_domain_text.replace(
        "max_mean_duration 1 h", "max_mean_duration 30 min"))
    after = dict(dom.propagate_sla(changed, order_pipeline.am))
    assert set(before) == set(after)
    payment_uids = {uid for uid, e in order_pipeline.am.items() if e.concept == "HandlePayment"}
    # independent set comparison of the two outputs
    diff = {uid for uid in before if before[uid] != after[uid]}
    assert diff == payment_uids
    for uid in payment_uids:
        assert after[uid].threshold_ms() == 30 * 60 * 1000


def test_cycle_messages_follow_the_walk_order():
    d = dom.Domain(
        name="D",
        concepts=(
            dom.DSConcept("A", "a", service_refs=("s",), depends_on=("B",)),
            dom.DSConcept("B", "b", service_refs=("s",), depends_on=("C", "B")),
            dom.DSConcept("C", "c", service_refs=("s",), depends_on=("A",)),
            dom.DSConcept("E", "e", service_refs=("s",), depends_on=("C",)),
        ),
        services=(dom.DSService("s", "op"),),
    )
    assert [x.message for x in dom.validate_domain(d)] == [
        "dependency cycle: A -> B -> C -> A", "dependency cycle: B -> B"]


def _chain(n, ring):
    """A domain of ``n`` concepts where each depends on the next; with
    ``ring`` the last depends on the first."""
    return dom.Domain(name="D", concepts=tuple(
        dom.DSConcept(f"C{i}", "c", service_refs=("s",),
                      depends_on=(f"C{(i + 1) % n}",) if ring or i < n - 1 else ())
        for i in range(n)), services=(dom.DSService("s", "op"),))


def test_dependency_chain_deeper_than_the_recursion_limit_is_valid():
    chain = _chain(1200, ring=False)
    assert dom.parse_domain(dom.serialize_domain(chain)) == chain


def test_dependency_ring_deeper_than_the_recursion_limit_is_one_cycle():
    names = [f"C{i}" for i in range(1200)]
    assert [x.message for x in dom.validate_domain(_chain(1200, ring=True))] == [
        "dependency cycle: " + " -> ".join(names + ["C0"])]
