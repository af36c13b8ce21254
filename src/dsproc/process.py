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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import diagnostics as diag
from .diagnostics import Diagnostic, ParseError
from .lexer import TokenStream, escape, stream

if TYPE_CHECKING:  # pragma: no cover
    from .domain import Domain

NODE_KINDS = ("start", "end", "concept", "exclusive", "parallel")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    concept: Optional[str] = None  # set iff kind == "concept"
    line: Optional[int] = field(default=None, compare=False)

    @property
    def is_gateway(self) -> bool:
        return self.kind in ("exclusive", "parallel")


@dataclass(frozen=True)
class Flow:
    source: str
    target: str
    condition: Optional[str] = None
    exceptional: bool = False
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class ProcessBody:
    nodes: Tuple[Node, ...] = ()
    flows: Tuple[Flow, ...] = ()

    def concept_refs(self) -> List[Node]:
        return [n for n in self.nodes if n.kind == "concept"]


@dataclass(frozen=True)
class ProcessModel:
    name: str
    domain_ref: str
    body: ProcessBody


def parse_body(ts: TokenStream) -> ProcessBody:
    """Parse statements up to (but not including) the closing ``}``.

    Only syntactic and local structural checks happen here; concept
    resolution and graph checks are the job of :func:`validate_body`.
    """
    nodes: List[Node] = []
    flows: List[Flow] = []
    declared = {}
    end_used = False

    def declare(node: Node) -> None:
        if node.id in declared:
            raise ParseError(f"duplicate node id {node.id!r}", node.line)
        declared[node.id] = node
        nodes.append(node)

    while not ts.at("}") and not ts.at_eof():
        tok = ts.peek()
        if ts.accept("node"):
            name_tok = ts.expect_ident()
            if name_tok.value in ("start", "end"):
                raise ParseError(
                    f"{name_tok.value!r} is an implicit node and cannot be redeclared",
                    name_tok.line, name_tok.column,
                )
            ts.expect(":")
            kind_tok = ts.expect_ident()
            if kind_tok.value == "concept":
                concept_tok = ts.expect_ident()
                declare(Node(name_tok.value, "concept", concept_tok.value, name_tok.line))
            elif kind_tok.value in ("exclusive", "parallel"):
                declare(Node(name_tok.value, kind_tok.value, line=name_tok.line))
            else:
                raise ParseError(
                    f"unknown node kind {kind_tok.value!r}", kind_tok.line, kind_tok.column
                )
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

    all_nodes: List[Node] = [Node("start", "start")]
    all_nodes.extend(nodes)
    if end_used:
        all_nodes.append(Node("end", "end"))
    return ProcessBody(tuple(all_nodes), tuple(flows))


def parse_process(source: str, domain: "Domain") -> ProcessModel:
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


def validate_body(body: ProcessBody, domain: Optional["Domain"], where: str = "") -> List[Diagnostic]:
    """Structural diagnostics for one process body (used for subprocess bodies too)."""
    out: List[Diagnostic] = []
    prefix = f"{where}: " if where else ""
    ids = {n.id: n for n in body.nodes}  # parse_body rejects a duplicate id

    starts = [n for n in body.nodes if n.kind == "start"]
    ends = [n for n in body.nodes if n.kind == "end"]
    if len(starts) != 1:
        out.append(diag.error(f"{prefix}expected exactly one start node, found {len(starts)}"))
    if not ends:
        out.append(diag.error(f"{prefix}no flow reaches 'end'"))

    outgoing: dict = {n.id: [] for n in body.nodes}
    incoming: dict = {n.id: [] for n in body.nodes}
    for f in body.flows:
        ok = True
        for endpoint in (f.source, f.target):
            if endpoint not in ids:
                out.append(diag.error(f"{prefix}flow references unknown node {endpoint!r}", f.line))
                ok = False
        if not ok:
            continue
        outgoing[f.source].append(f)
        incoming[f.target].append(f)
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
        seen = set()
        stack = ["start"]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for f in outgoing.get(cur, ()):
                stack.append(f.target)
        for n in body.nodes:
            if n.id not in seen:
                out.append(diag.error(f"{prefix}node {n.id!r} is unreachable from start", n.line))
        if ends:
            co_seen = set()
            stack = [e.id for e in ends]
            while stack:
                cur = stack.pop()
                if cur in co_seen:
                    continue
                co_seen.add(cur)
                for f in incoming.get(cur, ()):
                    stack.append(f.source)
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


def validate_process(model: ProcessModel, domain: "Domain") -> List[Diagnostic]:
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
