from dsproc import domain as dom, mappings, pivot
from dsproc import process as proc

from conftest import compile_pipeline


def test_kinds_lowered_one_to_one(order_pipeline):
    model, common = order_pipeline.model, order_pipeline.common
    kind_of = {n.id: n.kind for n in model.body.nodes}
    # nodes and elements are positionally aligned at the top level
    assert len(common.elements) == len(model.body.nodes)
    for node, element in zip(model.body.nodes, common.elements):
        if node.kind == "concept":
            expected = "subprocess" if order_pipeline.domain.concept(
                node.concept).subprocess else "activity"
            assert element.kind == expected
        else:
            assert element.kind == kind_of[node.id]


def test_flow_count_oracle(order_pipeline):
    # oracle: flows in the pivot = flows in the source text, per level
    assert len(order_pipeline.common.flows) == len(order_pipeline.model.body.flows)


def test_concept_tags_cover_all_concept_nodes(order_pipeline):
    common = order_pipeline.common
    top_tagged = {e.concept for e in common.elements if e.concept is not None}
    source_refs = {n.concept for n in order_pipeline.model.body.concept_refs()}
    assert top_tagged == source_refs


def test_subprocess_recursion(order_pipeline):
    subs = [e for e in order_pipeline.common.elements if e.kind == "subprocess"]
    assert len(subs) == 1
    inner = subs[0].inner
    assert inner is not None
    inner_concepts = {e.concept for e in inner.elements if e.concept is not None}
    assert inner_concepts == {"HandlePayment", "PackageItems", "ShipAndConfirm"}
    # inner uids are registered under the container's path
    path_of = {uid: path for path, uid in order_pipeline.registry.entries.items()}
    container_path = path_of[subs[0].uid]
    for e in inner.elements:
        assert path_of[e.uid].startswith(container_path + "/")


def test_uid_stability_across_regeneration(order_domain, order_process):
    first = compile_pipeline(order_domain, order_process)
    second = compile_pipeline(order_domain, order_process, store=first.store)
    assert second.registry.new_allocations == 0
    assert second.common == first.common


def test_uids_unique_across_processes(order_domain, order_process):
    other = proc.parse_process(
        """process Reorder uses OrderHandling {
          node a: concept ApproveOrder
          start -> a
          a -> end
        }""", order_domain)
    store = mappings.MappingStore(domain=order_domain.name)
    registry = store.registry()
    c1 = pivot.to_common(order_process, order_domain, registry)
    c2 = pivot.to_common(other, order_domain, registry)

    def uids(m):
        for e in m.elements:
            yield e.uid
            if e.inner is not None:
                yield from uids(e.inner)

    all_uids = list(uids(c1)) + list(uids(c2))
    assert len(all_uids) == len(set(all_uids))


def test_empty_process_lowering(order_domain):
    model = proc.parse_process(
        "process P uses OrderHandling { start -> end }", order_domain)
    common = pivot.to_common(model, order_domain, mappings.UidRegistry())
    assert [e.kind for e in common.elements] == ["start", "end"]
    assert len(common.flows) == 1
