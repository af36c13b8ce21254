import re

import pytest
from hypothesis import given, settings

from dsproc import process as proc
from dsproc.diagnostics import ParseError

from models import worlds


def test_minimal_process(order_domain):
    model = proc.parse_process("process P uses OrderHandling { start -> end }",
                               order_domain)
    assert len(model.body.nodes) == 2
    assert len(model.body.flows) == 1
    assert model.body.nodes[0].kind == "start"
    assert model.body.nodes[-1].kind == "end"


def _bfs_reachable(body):
    # independent reachability oracle
    adj = {}
    for f in body.flows:
        adj.setdefault(f.source, []).append(f.target)
    seen, queue = set(), ["start"]
    while queue:
        cur = queue.pop(0)
        if cur in seen:
            continue
        seen.add(cur)
        queue.extend(adj.get(cur, []))
    return seen


def test_order_fixture_all_nodes_reachable(order_process):
    reachable = _bfs_reachable(order_process.body)
    assert reachable == {n.id for n in order_process.body.nodes}


def _first_error(model, domain):
    return next(x for x in proc.validate_process(model, domain) if x.severity == "error")


def test_unknown_concept_named_with_line(order_domain):
    src = 'process P uses OrderHandling {\n  node x: concept Foo\n  start -> x\n  x -> end\n}'
    first = _first_error(proc.parse_process(src, order_domain), order_domain)
    assert re.search("Foo", first.message)
    assert first.line == 2


def test_unreachable_node_rejected(order_domain):
    src = """process P uses OrderHandling {
      node a: concept ApproveOrder
      node b: concept ReviewComment
      start -> a
      a -> end
      b -> end
    }"""
    first = _first_error(proc.parse_process(src, order_domain), order_domain)
    assert re.search("unreachable", first.message)


def test_missing_end_rejected(order_domain):
    model = proc.parse_process(
        'process P uses OrderHandling { node a: concept ApproveOrder\n start -> a }',
        order_domain)
    assert _first_error(model, order_domain).message == "no flow reaches 'end'"


def test_degenerate_gateway_warns(order_domain):
    src = """process P uses OrderHandling {
      node g: exclusive
      start -> g
      g -> end
    }"""
    model = proc.parse_process(src, order_domain)
    diags = proc.validate_process(model, order_domain)
    assert any("degenerate gateway" in d.message and d.severity == "warning"
               for d in diags)


def test_exceptional_flow_from_concept_is_clean(order_domain):
    src = """process P uses OrderHandling {
      node a: concept ApproveOrder
      start -> a
      a -> end
      a -> end exceptional
    }"""
    model = proc.parse_process(src, order_domain)
    assert proc.validate_process(model, order_domain) == []


def _token_balance(body):
    # oracle: parallel fork arity minus join arity over the whole body
    outgoing, incoming = {}, {}
    for f in body.flows:
        outgoing[f.source] = outgoing.get(f.source, 0) + 1
        incoming[f.target] = incoming.get(f.target, 0) + 1
    created = sum(outgoing.get(n.id, 0) - 1 for n in body.nodes
                  if n.kind == "parallel" and outgoing.get(n.id, 0) > 1)
    merged = sum(incoming.get(n.id, 0) - 1 for n in body.nodes
                 if n.kind == "parallel" and incoming.get(n.id, 0) > 1)
    return created, merged


def test_unmatched_parallel_split_warns(order_domain):
    src = """process P uses OrderHandling {
      node split: parallel
      node a: concept ApproveOrder
      node b: concept ReviewComment
      node m: exclusive
      start -> split
      split -> a
      split -> b
      a -> m
      b -> m
      m -> end
    }"""
    model = proc.parse_process(src, order_domain)
    created, merged = _token_balance(model.body)
    assert created > merged
    diags = proc.validate_process(model, order_domain)
    assert any("parallel" in d.message and d.severity == "warning" for d in diags)


def test_condition_on_plain_flow_rejected(order_domain):
    src = """process P uses OrderHandling {
      node a: concept ApproveOrder
      start -> a
      a -> end when "sure"
    }"""
    first = _first_error(proc.parse_process(src, order_domain), order_domain)
    assert re.search("condition", first.message)


def test_exceptional_condition_gets_info_diagnostic(order_domain):
    src = """process P uses OrderHandling {
      node a: concept ApproveOrder
      start -> a
      a -> end
      a -> end when "rejected" exceptional
    }"""
    model = proc.parse_process(src, order_domain)
    diags = proc.validate_process(model, order_domain)
    assert [d.severity for d in diags] == ["info"]


def test_fixture_round_trip(order_domain, order_process):
    text = proc.serialize_process(order_process)
    assert proc.parse_process(text, order_domain) == order_process


def test_concept_refs_all_resolve(order_domain, order_process):
    for node in order_process.body.concept_refs():
        assert order_domain.concept(node.concept) is not None


@settings(max_examples=34, deadline=None)  # 102 processes
@given(worlds(least=3))
def test_round_trip_property(world):
    for model in world.processes:
        again = proc.parse_process(proc.serialize_process(model), world.domain)
        assert again == model
        assert [x for x in proc.validate_process(again, world.domain)
                if x.severity == "error"] == []


def test_foreign_domain_is_a_located_error(order_domain):
    with pytest.raises(ParseError, match="uses domain 'Other' but 'OrderHandling'") as info:
        proc.parse_process("process P uses Other {\n  start -> end\n}", order_domain)
    assert (info.value.line, info.value.column) == (1, 16)
