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
from . import lexer
from .lexer import escape

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import Diagnostic
    from .domain import Domain
    from .lexer import Tokens


class Node(diag.Located, namedtuple("Node", "id kind concept", defaults=(None,))):
    """A node of a process body; ``concept`` is set iff ``kind == "concept"``."""

    @property
    def is_gateway(self) -> bool:
        return self.kind in ("exclusive", "parallel")


class Flow(diag.Located, namedtuple("Flow", "source target condition exceptional",
                                    defaults=(None, False))):
    """A flow between two nodes."""


class ProcessBody(namedtuple("ProcessBody", "nodes flows", defaults=((), ()))):
    __slots__ = ()

    def concept_refs(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "concept"]


ProcessModel = namedtuple("ProcessModel", "name domain_ref body")


def parse_body(toks: Tokens, i: int) -> tuple[ProcessBody, int]:
    """Parse statements from token ``i``, just after the body's opening ``{``,
    up to (but not including) the closing ``}``, and return the body and that
    ``}``'s index. The implicit ``start`` is placed on the line of the ``{``,
    and ``end`` on that of the first flow into it.

    Only syntactic and local structural checks happen here; concept
    resolution and graph checks are the job of :func:`validate_body`.
    """
    lines = toks.lines
    nodes: list[Node] = [Node("start", "start", line=lines[i - 1])]
    flows: list[Flow] = []
    declared = set()
    end_line = None

    while toks[i] != "}" and toks[i]:
        at = i
        if toks[i] == "node":
            name = toks[i + 1]
            if not name.isidentifier():
                raise toks.expected(i + 1, "IDENT")
            if name in ("start", "end"):
                raise toks.error(i + 1, f"{name!r} is an implicit node and cannot be redeclared")
            if name in declared:
                raise toks.error(i + 1, f"duplicate node id {name!r}")
            if toks[i + 2] != ":":
                raise toks.expected(i + 2, "':'")
            kind = toks[i + 3]
            if kind == "concept":
                i = lexer.expect(toks, i + 4, "IDENT")
                nodes.append(Node(name, "concept", toks[i - 1], line=lines[at + 1]))
            elif kind in ("exclusive", "parallel"):
                nodes.append(Node(name, kind, line=lines[at + 1]))
                i += 4
            elif kind.isidentifier():
                raise toks.error(i + 3, f"unknown node kind {kind!r}")
            else:
                raise toks.expected(i + 3, "IDENT")
            declared.add(name)
            continue
        # flow statement: endpoint -> endpoint (when STRING)? (exceptional)?
        if not (toks[i].isidentifier() and toks[i + 1] == "->" and toks[i + 2].isidentifier()):
            lexer.expect(toks, i, "IDENT", "->", "IDENT")  # raises at the token that differs
        i += 3
        condition = None
        if toks[i] == "when":
            i = lexer.expect(toks, i + 1, "STRING")
            condition = lexer.value(toks[i - 1])
        exceptional = toks[i] == "exceptional"
        if exceptional:
            i += 1
        if toks[at + 2] == "end" and end_line is None:
            end_line = lines[at]
        flows.append(Flow(toks[at], toks[at + 2], condition, exceptional, line=lines[at]))

    if end_line is not None:
        nodes.append(Node("end", "end", line=end_line))
    return ProcessBody(tuple(nodes), tuple(flows)), i


def parse_process(source: str, domain: Domain) -> ProcessModel:
    """Parse a process definition that uses ``domain``; :func:`validate_process`
    checks it against the domain.

    Raises :class:`ParseError` carrying line/column on the first syntax error.
    """
    toks = lexer.tokenize(source)
    i = lexer.expect(toks, 0, "process", "IDENT", "uses", "IDENT")
    if toks[3] != domain.name:
        raise toks.error(3, f"process uses domain {toks[3]!r} but {domain.name!r} was supplied")
    body, i = parse_body(toks, lexer.expect(toks, i, "{"))
    i = lexer.expect(toks, i, "}")
    if toks[i]:
        raise toks.error(i, f"unexpected trailing input {lexer.value(toks[i])!r}")
    return ProcessModel(toks[1], domain.name, body)


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
        out.append(diag.error(f"{prefix}no flow reaches 'end'", starts[0].line if starts else None))

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
        seen = diag.reachable(["start"], outgoing)
        for n in body.nodes:
            if n.id not in seen:
                out.append(diag.error(f"{prefix}node {n.id!r} is unreachable from start", n.line))
        if ends:
            co_seen = diag.reachable([e.id for e in ends], incoming)
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
