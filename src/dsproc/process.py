"""Process models: graphs of concept references, gateways and flows.

A process file (``.dsproc``) declares named nodes and directed flows between
them. ``start`` and ``end`` are implicit nodes; every ``-> end`` targets one
shared end node. Flows may carry a condition label (only meaningful when
leaving an exclusive gateway) and may be marked ``exceptional``.

The same statement grammar is reused for subprocess bodies declared inside
domain concepts, so a concept defined as a small textual process needs no
second parser.
"""

from __future__ import annotations

from collections import namedtuple

from . import diagnostics as diag
from .diagnostics import ParseError
from .lexer import escape, stream

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import Diagnostic
    from .domain import Domain
    from .lexer import TokenStream

class Node(namedtuple("Node", "id kind concept")):
    """A node of a process body; ``concept`` is set iff ``kind == "concept"``.

    ``line``, where the node is declared, takes no part in ==, hash or repr.
    """

    line = None

    def __new__(cls, id: str, kind: str, concept: str | None = None,
                line: int | None = None) -> Node:
        node = tuple.__new__(cls, (id, kind, concept))
        node.line = line
        return node

    @property
    def is_gateway(self) -> bool:
        return self.kind in ("exclusive", "parallel")


class Flow(namedtuple("Flow", "source target condition exceptional")):
    """A flow between two nodes; ``line`` takes no part in ==, hash or repr."""

    line = None

    def __new__(cls, source: str, target: str, condition: str | None = None,
                exceptional: bool = False, line: int | None = None) -> Flow:
        flow = tuple.__new__(cls, (source, target, condition, exceptional))
        flow.line = line
        return flow


class ProcessBody(namedtuple("ProcessBody", "nodes flows", defaults=((), ()))):
    __slots__ = ()

    def concept_refs(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "concept"]


ProcessModel = namedtuple("ProcessModel", "name domain_ref body")


def parse_body(ts: TokenStream) -> ProcessBody:
    """Parse statements up to (but not including) the closing ``}``.

    Only syntactic and local structural checks happen here; concept
    resolution and graph checks are the job of :func:`validate_body`.
    """
    nodes: list[Node] = []
    flows: list[Flow] = []
    declared = set()
    end_used = False

    while not ts.at("}") and not ts.at_eof():
        tok = ts.peek()
        if ts.accept("node"):
            name_tok = ts.expect_ident()
            if name_tok.value in ("start", "end"):
                raise ParseError(
                    f"{name_tok.value!r} is an implicit node and cannot be redeclared",
                    name_tok.line, name_tok.column,
                )
            if name_tok.value in declared:
                raise ParseError(f"duplicate node id {name_tok.value!r}",
                                 name_tok.line, name_tok.column)
            ts.expect(":")
            kind_tok = ts.expect_ident()
            if kind_tok.value == "concept":
                concept_tok = ts.expect_ident()
                nodes.append(Node(name_tok.value, "concept", concept_tok.value, name_tok.line))
            elif kind_tok.value in ("exclusive", "parallel"):
                nodes.append(Node(name_tok.value, kind_tok.value, line=name_tok.line))
            else:
                raise ParseError(
                    f"unknown node kind {kind_tok.value!r}", kind_tok.line, kind_tok.column
                )
            declared.add(name_tok.value)
            continue
        # flow statement: endpoint -> endpoint (when STRING)? (exceptional)?
        src_tok = ts.expect_ident()
        ts.expect("->")
        tgt_tok = ts.expect_ident()
        condition = None
        exceptional = False
        if ts.accept("when"):
            condition = ts.expect_string().value
        if ts.accept("exceptional"):
            exceptional = True
        if tgt_tok.value == "end":
            end_used = True
        flows.append(Flow(src_tok.value, tgt_tok.value, condition, exceptional, tok.line))

    all_nodes: list[Node] = [Node("start", "start")]
    all_nodes.extend(nodes)
    if end_used:
        all_nodes.append(Node("end", "end"))
    return ProcessBody(tuple(all_nodes), tuple(flows))


def parse_process(source: str, domain: Domain) -> ProcessModel:
    """Parse a process definition that uses ``domain``; :func:`validate_process`
    checks it against the domain.

    Raises :class:`ParseError` carrying line/column on the first syntax error.
    """
    ts = stream(source)
    ts.expect("process")
    name = ts.expect_ident().value
    ts.expect("uses")
    domain_tok = ts.expect_ident()
    if domain_tok.value != domain.name:
        raise ParseError(
            f"process uses domain {domain_tok.value!r} but {domain.name!r} was supplied",
            domain_tok.line, domain_tok.column,
        )
    ts.expect("{")
    body = parse_body(ts)
    ts.expect("}")
    if not ts.at_eof():
        tok = ts.peek()
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
    return ProcessModel(name, domain.name, body)


def validate_body(body: ProcessBody, domain: Domain | None, where: str = "") -> list[Diagnostic]:
    """Structural diagnostics for one process body (used for subprocess bodies too)."""
    out: list[Diagnostic] = []
    prefix = f"{where}: " if where else ""
    ids = {n.id: n for n in body.nodes}  # parse_body rejects a duplicate id

    starts = [n for n in body.nodes if n.kind == "start"]
    ends = [n for n in body.nodes if n.kind == "end"]
    if len(starts) != 1:
        out.append(diag.error(f"{prefix}expected exactly one start node, found {len(starts)}"))
    if not ends:
        out.append(diag.error(f"{prefix}no flow reaches 'end'"))

    outgoing: dict = {n.id: [] for n in body.nodes}  # each node's flow targets
    incoming: dict = {n.id: [] for n in body.nodes}  # and flow sources
    for f in body.flows:
        ok = True
        for endpoint in (f.source, f.target):
            if endpoint not in ids:
                out.append(diag.error(f"{prefix}flow references unknown node {endpoint!r}", f.line))
                ok = False
        if not ok:
            continue
        outgoing[f.source].append(f.target)
        incoming[f.target].append(f.source)
        src = ids[f.source]
        if f.condition is not None and not f.exceptional and src.kind != "exclusive":
            out.append(diag.error(
                f"{prefix}condition {f.condition!r} on a flow that neither leaves an "
                f"exclusive gateway nor is exceptional", f.line))
        if f.condition is not None and f.exceptional:
            out.append(diag.info(
                f"{prefix}exceptional flow from {f.source!r} carries a condition", f.line))

    if domain is not None:
        for n in body.concept_refs():
            if domain.concept(n.concept) is None:
                out.append(diag.error(f"{prefix}unknown concept {n.concept!r}", n.line))

    # reachability from start, and every node must be able to reach an end
    if len(starts) == 1:
        seen = _reachable(["start"], outgoing)
        for n in body.nodes:
            if n.id not in seen:
                out.append(diag.error(f"{prefix}node {n.id!r} is unreachable from start", n.line))
        if ends:
            co_seen = _reachable([e.id for e in ends], incoming)
            for n in body.nodes:
                if n.id in seen and n.id not in co_seen:
                    out.append(diag.error(
                        f"{prefix}node {n.id!r} lies on no path to an end node", n.line))

    for n in body.nodes:
        if n.kind != "end" and not outgoing.get(n.id):
            out.append(diag.error(f"{prefix}node {n.id!r} has no outgoing flow", n.line))
        if n.is_gateway and len(outgoing.get(n.id, ())) == 1 and len(incoming.get(n.id, ())) == 1:
            out.append(diag.warning(f"{prefix}degenerate gateway {n.id!r} (one in, one out)", n.line))

    splits = sum(1 for n in body.nodes if n.kind == "parallel" and len(outgoing.get(n.id, ())) > 1)
    joins = sum(1 for n in body.nodes if n.kind == "parallel" and len(incoming.get(n.id, ())) > 1)
    if splits != joins:
        out.append(diag.warning(
            f"{prefix}unbalanced parallel gateways ({splits} splits, {joins} joins)"))
    return out


def _reachable(seeds: list[str], edges: dict[str, list[str]]) -> set[str]:
    """``seeds`` and every node reachable from them along ``edges``."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for node in edges.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def validate_process(model: ProcessModel, domain: Domain) -> list[Diagnostic]:
    """Diagnostics for a parsed process; :func:`parse_process` already matched its domain."""
    return validate_body(model.body, domain)


def serialize_body(body: ProcessBody, indent: str = "  ") -> str:
    lines = []
    for n in body.nodes:
        if n.kind in ("start", "end"):
            continue
        if n.kind == "concept":
            lines.append(f"{indent}node {n.id}: concept {n.concept}")
        else:
            lines.append(f"{indent}node {n.id}: {n.kind}")
    for f in body.flows:
        parts = [f"{indent}{f.source} -> {f.target}"]
        if f.condition is not None:
            parts.append(f'when "{escape(f.condition)}"')
        if f.exceptional:
            parts.append("exceptional")
        lines.append(" ".join(parts))
    return "\n".join(lines)


def serialize_process(model: ProcessModel) -> str:
    body = serialize_body(model.body)
    inner = f"\n{body}\n" if body else "\n"
    return f"process {model.name} uses {model.domain_ref} {{{inner}}}\n"
