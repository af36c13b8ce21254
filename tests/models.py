"""The one generator of random models for the property tests: :func:`worlds`
draws a valid domain and one to three processes over it, as dsproc's model
objects, which ``domain.serialize_domain`` and ``process.serialize_process``
turn into source text. A new property draws its models from here.

The domain has services, SLAs of all three metrics, leaf concepts with an
optional SLA and an acyclic ``depends_on``, and subprocess concepts whose
bodies use earlier leaf concepts; labels and conditions need escapes. A
process or subprocess body is a chain of tasks, exclusive choices with and
without conditions, parallel blocks and loops left through an exclusive
gateway; a task outside a parallel block may leave for the end by an
exceptional flow (inside one, it would strand the join). A draw costs
hypothesis about 0.1 ms, more than checking a small world, so a name, a
text and a set of names are one draw each.
"""

from collections import namedtuple

from hypothesis import strategies as st

from dsproc import domain as dom
from dsproc import process as proc

World = namedtuple("World", "domain processes")

_ident = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_0123456789", max_size=6)
# letters and digits of several scripts and planes, and the " and \ a literal escapes
_text = st.text('aZ09 _-"\\éЖ中٣𝔘', max_size=8)
_condition = _text.map(lambda text: text or None)
# any letter or digit, for service operations: the lexer reads them as it reads labels
_words = st.text(st.characters(categories=("L", "N"), include_characters=" _-"), max_size=8)
_BLOCKS = "tcfl"  # a task, an exclusive choice, a parallel fork and join, a loop


def _names(draw, prefix, least, most):
    """``least`` to ``most`` identifiers, the ``i``-th ending in digit ``i``."""
    return [prefix + draw(_ident) + str(i) for i in range(draw(st.integers(least, most)))]


def _some(draw, names, most):
    """Up to ``most`` of ``names``: those the bits of one drawn number pick."""
    bits = draw(st.integers(0, 2 ** len(names) - 1))
    return tuple(name for i, name in enumerate(names) if bits >> i & 1)[:most]


def _sla(draw, name):
    metric = draw(st.sampled_from(dom.SLA_METRICS))
    if metric == "max_fault_rate":
        threshold, unit = draw(st.integers(0, 100)) / 100, "ratio"
    else:
        threshold, unit = float(draw(st.integers(0, 1000))), draw(st.sampled_from(
            tuple(dom.TIME_UNITS)))
    return dom.Sla(name, metric, threshold, unit, draw(st.sampled_from(dom.SLA_SEVERITIES)))


def _body(draw, concepts):
    """A chain of one to three blocks from start to end, over ``concepts``."""
    nodes, flows, kind_of = [], [], {}

    def node(kind, concept=None):
        kind_of[f"n{len(nodes)}"] = kind
        nodes.append(proc.Node(f"n{len(nodes)}", kind, concept))
        return nodes[-1].id

    def link(source, target):
        exclusive = kind_of.get(source) == "exclusive"
        flows.append(proc.Flow(source, target, draw(_condition) if exclusive else None))

    def task(may_leave=True):
        tid = node("concept", draw(st.sampled_from(concepts)))
        if may_leave and draw(st.booleans()):
            flows.append(proc.Flow(tid, "end", draw(_condition), True))
        return tid

    last = "start"
    for block in draw(st.text(_BLOCKS, min_size=1, max_size=3)):
        if block == "t":
            first = task()
            link(last, first)
            last = first
        elif block == "l":
            first, gate = task(), node("exclusive")
            link(last, first)
            link(first, gate)
            link(gate, first)
            last = gate
        else:
            kind = "exclusive" if block == "c" else "parallel"
            split = node(kind)
            branches = [task(kind == "exclusive") for _ in range(draw(st.integers(2, 3)))]
            join = node(kind)
            link(last, split)
            for branch in branches:
                link(split, branch)
                link(branch, join)
            last = join
    link(last, "end")
    return proc.ProcessBody((proc.Node("start", "start"), *nodes, proc.Node("end", "end")),
                            tuple(flows))


@st.composite
def worlds(draw, least=1) -> World:
    """A domain and ``least`` to three processes over it."""
    services = tuple(dom.DSService(name, draw(_words)) for name in _names(draw, "s", 1, 4))
    slas = tuple(_sla(draw, name) for name in _names(draw, "L", 0, 3))
    concepts = []
    for name in _names(draw, "C", 1, 5):
        leaves = tuple(c.name for c in concepts if c.subprocess is None)
        shared = (name, draw(_text), draw(st.integers(1, 3)))
        depends_on = _some(draw, [c.name for c in concepts], 2)
        if leaves and draw(st.booleans()):
            concepts.append(dom.DSConcept(*shared, depends_on=depends_on,
                                          subprocess=_body(draw, leaves)))
        else:
            concepts.append(dom.DSConcept(
                *shared, _some(draw, [s.name for s in services], 3) or (services[0].name,),
                draw(st.sampled_from((None,) + tuple(s.name for s in slas))), depends_on))
    d = dom.Domain("D" + draw(_ident), tuple(concepts), services, slas)
    names = tuple(c.name for c in concepts)
    return World(d, tuple(proc.ProcessModel(name, d.name, _body(draw, names))
                          for name in _names(draw, "P", least, 3)))
