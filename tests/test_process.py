import pytest
from hypothesis import given, strategies as st

from dsproc import domain as dom
from dsproc import process as proc
from dsproc.diagnostics import ParseError


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


def test_unknown_concept_named_with_line(order_domain):
    src = 'process P uses OrderHandling {\n  node x: concept Foo\n  start -> x\n  x -> end\n}'
    with pytest.raises(ParseError, match="Foo") as exc:
        proc.parse_process(src, order_domain)
    assert exc.value.line == 2


def test_unreachable_node_rejected(order_domain):
    src = """process P uses OrderHandling {
      node a: concept ApproveOrder
      node b: concept ReviewComment
      start -> a
      a -> end
      b -> end
    }"""
    with pytest.raises(ParseError, match="unreachable"):
        proc.parse_process(src, order_domain)


def test_missing_end_rejected(order_domain):
    with pytest.raises(ParseError):
        proc.parse_process(
            'process P uses OrderHandling { node a: concept ApproveOrder\n start -> a }',
            order_domain)


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
    with pytest.raises(ParseError, match="condition"):
        proc.parse_process(src, order_domain)


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


_TINY_DOMAIN = dom.parse_domain("""
domain Tiny {
  service s { operation "op" }
  concept C1 { label "c one" services [s] }
  concept C2 { label "c two" services [s] }
  concept C3 { label "c three" services [s] }
}
""")

_concepts = st.sampled_from(("C1", "C2", "C3"))


@st.composite
def _processes(draw):
    # structured generator: a chain of blocks is always a valid process
    n_blocks = draw(st.integers(1, 4))
    nodes, flows = [], []
    prev = "start"
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    for _ in range(n_blocks):
        kind = draw(st.sampled_from(("task", "choice", "fork")))
        if kind == "task":
            nid = fresh("t")
            nodes.append(proc.Node(nid, "concept", draw(_concepts)))
            flows.append(proc.Flow(prev, nid))
            prev = nid
        else:
            gw_kind = "exclusive" if kind == "choice" else "parallel"
            split, join = fresh("s"), fresh("j")
            nodes.append(proc.Node(split, gw_kind))
            flows.append(proc.Flow(prev, split))
            for b in range(2):
                nid = fresh("t")
                nodes.append(proc.Node(nid, "concept", draw(_concepts)))
                cond = draw(st.sampled_from((None, "yes", "no"))) \
                    if gw_kind == "exclusive" else None
                flows.append(proc.Flow(split, nid, condition=cond))
                flows.append(proc.Flow(nid, join))
            nodes.append(proc.Node(join, gw_kind))
            prev = join
    flows.append(proc.Flow(prev, "end"))
    body = proc.ProcessBody(
        (proc.Node("start", "start"), *nodes, proc.Node("end", "end")), tuple(flows))
    return proc.ProcessModel(draw(st.sampled_from(("P", "Q"))), "Tiny", body)


@given(_processes())
def test_round_trip_property(model):
    text = proc.serialize_process(model)
    assert proc.parse_process(text, _TINY_DOMAIN) == model


def test_foreign_domain_is_a_located_error(order_domain):
    with pytest.raises(ParseError, match="uses domain 'Other' but 'OrderHandling'") as info:
        proc.parse_process("process P uses Other {\n  start -> end\n}", order_domain)
    assert (info.value.line, info.value.column) == (1, 16)
