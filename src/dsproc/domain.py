"""Domain repositories: concepts, abstract services and SLA definitions.

A domain file (``.dsml``) is the shared enterprise vocabulary. Concepts
reference the abstract services they need and may carry an SLA reference;
a concept may alternatively be defined by a textual subprocess body, in
which case it expands to several activities at generation time.
"""

from __future__ import annotations

from collections import namedtuple

from . import diagnostics as diag
from . import process as proc
from . import lexer
from .diagnostics import DsprocError
from .lexer import escape

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import Diagnostic

SLA_METRICS = ("max_duration", "max_mean_duration", "max_fault_rate")
TIME_UNITS = {"ms": 1.0, "s": 1000.0, "min": 60_000.0, "h": 3_600_000.0, "d": 86_400_000.0}
SLA_UNITS = tuple(TIME_UNITS) + ("ratio",)
SLA_SEVERITIES = ("info", "warning", "critical")


class DSService(diag.Located, namedtuple("DSService", "name operation")):
    """An abstract service, named by the operation it offers."""


class Sla(diag.Located, namedtuple("Sla", "name metric threshold unit severity")):
    def threshold_ms(self) -> float:
        """Threshold converted to milliseconds (duration metrics only)."""
        if self.unit == "ratio":
            raise DsprocError(f"SLA {self.name!r} has no duration threshold")
        return self.threshold * TIME_UNITS[self.unit]


class DSConcept(diag.Located, namedtuple("DSConcept", "name label version service_refs sla_ref "
                                                      "depends_on subprocess",
                                         defaults=(1, (), None, (), None))):
    """A concept: the services it needs or the subprocess body it expands to."""


class Domain(namedtuple("Domain", "name concepts services slas")):
    def __new__(cls, name: str, concepts: tuple[DSConcept, ...] = (),
                services: tuple[DSService, ...] = (), slas: tuple[Sla, ...] = ()) -> Domain:
        d = tuple.__new__(cls, (name, concepts, services, slas))
        # name -> item indexes, which are not fields: ==, hash and repr see
        # only the tuples. The first declaration of a name wins, as a scan
        # would find it; validate_domain reports the later ones.
        d._concepts, d._services, d._slas = (
            _first_by_name(concepts), _first_by_name(services), _first_by_name(slas))
        return d

    def concept(self, name: str) -> DSConcept | None:
        return self._concepts.get(name)

    def service(self, name: str) -> DSService | None:
        return self._services.get(name)

    def sla(self, name: str) -> Sla | None:
        return self._slas.get(name)


def _first_by_name(items) -> dict:
    index = {}
    for item in items:
        index.setdefault(item.name, item)
    return index


def parse_domain(source: str) -> Domain:
    """Parse a ``.dsml`` file; :func:`validate_domain` checks its invariants.

    Raises :class:`ParseError` carrying line/column on the first syntax error.
    """
    toks = lexer.tokenize(source)
    lines = toks.lines
    i = lexer.expect(toks, 0, "domain", "IDENT", "{")
    concepts: list[DSConcept] = []
    services: list[DSService] = []
    slas: list[Sla] = []

    while toks[i] != "}":
        word = toks[i]
        if word == "concept":
            i = _parse_concept(toks, i + 1, concepts)
        elif word == "service":
            i = lexer.expect(toks, i + 1, "IDENT", "{", "operation", "STRING", "}")
            services.append(DSService(toks[i - 5], lexer.value(toks[i - 2]),
                                      line=lines[i - 5]))
        elif word == "sla":
            at = i + 1
            i = _one_of(toks, lexer.expect(toks, at, "IDENT", "{", "IDENT"), SLA_METRICS, "metric")
            threshold = float(toks[lexer.expect(toks, i, "NUMBER") - 1])
            if threshold == float("inf"):
                raise toks.error(i, "threshold is too large")
            i = _one_of(toks, lexer.expect(toks, i + 1, "IDENT"), SLA_UNITS, "unit")
            i = _one_of(toks, lexer.expect(toks, i, "severity", "IDENT"), SLA_SEVERITIES,
                        "severity")
            slas.append(Sla(toks[at], toks[at + 2], threshold, toks[at + 4], toks[at + 6],
                            line=lines[at]))
            i = lexer.expect(toks, i, "}")
        else:
            raise toks.expected(i, "'concept', 'service' or 'sla'")
    if toks[i + 1]:
        raise toks.error(i + 1, f"unexpected trailing input {lexer.value(toks[i + 1])!r}")

    return Domain(toks[1], tuple(concepts), tuple(services), tuple(slas))


def _one_of(toks: lexer.Tokens, i: int, allowed: tuple[str, ...], what: str) -> int:
    """``i``, once the token before it is one of ``allowed``."""
    if toks[i - 1] not in allowed:
        raise toks.error(i - 1, f"unknown SLA {what} {toks[i - 1]!r}")
    return i


def _parse_concept(toks: lexer.Tokens, i: int, concepts: list[DSConcept]) -> int:
    """Append the concept named at token ``i``; the index after its ``}``."""
    at = i
    if not (toks[i].isidentifier() and toks[i + 1] == "{" and toks[i + 2] == "label"
            and toks[i + 3][:1] == '"'):
        lexer.expect(toks, i, "IDENT", "{", "label", "STRING")  # raises at the token that differs
    label = lexer.value(toks[i + 3])
    i += 4
    version = 1
    service_refs: tuple[str, ...] = ()
    sla_ref = None
    depends_on: tuple[str, ...] = ()
    subprocess = None
    seen = set()
    while toks[i] != "}":
        key = toks[i]
        if not key.isidentifier():
            raise toks.expected(i, "IDENT")
        if key in seen:
            raise toks.error(i, f"duplicate {key!r} clause in concept {toks[at]!r}")
        seen.add(key)
        if key == "services":
            service_refs, i = _ident_list(toks, i + 1)
        elif key == "sla":
            i = lexer.expect(toks, i + 1, "IDENT")
            sla_ref = toks[i - 1]
        elif key == "depends_on":
            depends_on, i = _ident_list(toks, i + 1)
        elif key == "version":
            i = lexer.expect(toks, i + 1, "NUMBER")
            version = float(toks[i - 1])
            if version < 1:
                raise toks.error(i - 2, "version must be >= 1")
            if version == float("inf"):
                raise toks.error(i - 1, "version is too large")
            version = int(version)
        elif key == "subprocess":
            subprocess, i = proc.parse_body(toks, lexer.expect(toks, i + 1, "{"))
            i = lexer.expect(toks, i, "}")
        else:
            raise toks.error(i, f"unknown concept clause {key!r}")
    concepts.append(DSConcept(toks[at], label, version, service_refs, sla_ref, depends_on,
                              subprocess, line=toks.lines[at]))
    return i + 1


def _ident_list(toks: lexer.Tokens, i: int) -> tuple[tuple[str, ...], int]:
    """The identifiers of the ``[…]`` list at token ``i``, and the index after it."""
    if toks[i] != "[":
        raise toks.expected(i, "'['")
    items = []
    while True:
        if not toks[i + 1].isidentifier():
            raise toks.expected(i + 1, "IDENT")
        items.append(toks[i + 1])
        i += 2
        if toks[i] != ",":
            return tuple(items), lexer.expect(toks, i, "]")


def validate_domain(d: Domain) -> list[Diagnostic]:
    """Invariant check over a structurally complete domain; empty means valid.

    A diagnostic about one declaration carries the line it is declared on.
    """
    out: list[Diagnostic] = []
    # the parser builds each declaration once, so one that is not the first
    # of its name, which the domain's index keeps, is a later duplicate
    for c in d.concepts:
        if d.concept(c.name) is not c:
            out.append(diag.error(f"duplicate concept name {c.name!r}", c.line))
    for s in d.services:
        if d.service(s.name) is not s:
            out.append(diag.error(f"duplicate service name {s.name!r}", s.line))
    for s in d.slas:
        if d.sla(s.name) is not s:
            out.append(diag.error(f"duplicate SLA name {s.name!r}", s.line))
        if s.threshold < 0:
            out.append(diag.error(f"SLA {s.name!r} threshold must be >= 0", s.line))
        if s.metric == "max_fault_rate":
            if s.unit != "ratio":
                out.append(diag.error(
                    f"SLA {s.name!r}: fault-rate threshold needs unit 'ratio'", s.line))
            elif s.threshold > 1:
                out.append(diag.error(
                    f"SLA {s.name!r}: fault-rate threshold must be <= 1", s.line))
        elif s.unit == "ratio":
            out.append(diag.error(f"SLA {s.name!r}: duration metric needs a time unit", s.line))

    for c in d.concepts:
        for ref in c.service_refs:
            if d.service(ref) is None:
                out.append(diag.error(
                    f"concept {c.name!r} references undeclared service {ref!r}", c.line))
        if c.sla_ref is not None and d.sla(c.sla_ref) is None:
            out.append(diag.error(
                f"concept {c.name!r} references undeclared SLA {c.sla_ref!r}", c.line))
        for dep in c.depends_on:
            if d.concept(dep) is None:
                out.append(diag.error(
                    f"concept {c.name!r} depends on unknown concept {dep!r}", c.line))
        if not c.service_refs and c.subprocess is None:
            out.append(diag.error(
                f"concept {c.name!r} needs either services or a subprocess body", c.line))
        if c.subprocess is not None:
            inner = [x for x in proc.validate_body(c.subprocess, None, f"concept {c.name}")
                     if x.severity == "error"]
            out.extend(inner)
            for node in c.subprocess.concept_refs():
                if d.concept(node.concept) is None:
                    out.append(diag.error(
                        f"concept {c.name!r} subprocess references unknown concept "
                        f"{node.concept!r}", node.line))

    deps = {c.name: [x for x in c.depends_on if d.concept(x)] for c in d.concepts}
    out.extend(_cycles(d, deps, "dependency cycle")[0])
    expands = {
        c.name: [n.concept for n in c.subprocess.concept_refs() if d.concept(n.concept)]
        if c.subprocess is not None else []
        for c in d.concepts
    }
    cycles, finished = _cycles(d, expands, "subprocess expansion cycle")
    out.extend(cycles)
    # how many subProcess levels each concept's expansion nests; an edge back
    # into a cycle counts for nothing. A concept deeper than one past the
    # bound expands to one exactly past it, so each chain gives one error.
    nesting: dict[str, int] = {}
    for name in finished:
        if d.concept(name).subprocess is not None:
            nesting[name] = 1 + max((nesting.get(n, 0) for n in expands[name]), default=0)
    for c in d.concepts:
        if nesting.get(c.name) == diag.MAX_NESTING + 1:
            out.append(diag.error(f"concept {c.name!r} expands to subprocesses nested more "
                                  f"than {diag.MAX_NESTING} levels deep", c.line))
    return out


def _cycles(d: Domain, deps: dict[str, list[str]], what: str
            ) -> tuple[list[Diagnostic], list[str]]:
    """One diagnostic per back edge of a depth-first walk over ``deps``, on
    the line of the concept the edge leaves, and the names in the order the
    walk finished them: each after every name it reaches other than through
    a back edge.

    The walk keeps its own stack, so a chain deeper than Python's recursion
    limit is walked like any other.
    """
    out: list[Diagnostic] = []
    done: dict[str, None] = {}  # in the order the walk finished them
    trail: list[str] = []  # the names being visited, outermost first
    at: dict[str, int] = {}  # name -> its index in trail
    for c in d.concepts:
        if c.name in done:
            continue
        at[c.name] = 0
        trail.append(c.name)
        pending = [iter(deps[c.name])]
        while pending:
            dep = next(pending[-1], None)
            if dep is None:
                pending.pop()
                name = trail.pop()
                del at[name]
                done[name] = None
            elif dep in at:
                cycle = trail[at[dep]:] + [dep]
                out.append(diag.error(f"{what}: " + " -> ".join(cycle), d.concept(trail[-1]).line))
            elif dep not in done:
                at[dep] = len(trail)
                trail.append(dep)
                pending.append(iter(deps[dep]))
    return out, list(done)


def serialize_domain(d: Domain) -> str:
    lines = [f"domain {d.name} {{"]
    for s in d.services:
        lines.append(f'  service {s.name} {{ operation "{escape(s.operation)}" }}')
    for s in d.slas:
        threshold = _num(s.threshold)
        lines.append(f"  sla {s.name} {{ {s.metric} {threshold} {s.unit} severity {s.severity} }}")
    for c in d.concepts:
        lines.append(f"  concept {c.name} {{")
        lines.append(f'    label "{escape(c.label)}"')
        if c.version != 1:
            lines.append(f"    version {c.version}")
        if c.service_refs:
            lines.append(f"    services [{', '.join(c.service_refs)}]")
        if c.sla_ref is not None:
            lines.append(f"    sla {c.sla_ref}")
        if c.depends_on:
            lines.append(f"    depends_on [{', '.join(c.depends_on)}]")
        if c.subprocess is not None:
            lines.append("    subprocess {")
            body = proc.serialize_body(c.subprocess, indent="      ")
            if body:
                lines.append(body)
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def propagate_sla(d: Domain, am) -> list[tuple[str, Sla]]:
    """Fan an enterprise-wide SLA out to every mapped activity.

    ``am`` is a :data:`~dsproc.mappings.ActivityMappings` dict. Each mapped
    activity whose concept carries an SLA reference yields one
    ``(activity_uid, Sla)`` entry; activities of SLA-less concepts are absent.
    """
    out: list[tuple[str, Sla]] = []
    for uid, entry in am.items():
        concept = d.concept(entry.concept)
        if concept is None:
            raise DsprocError(f"activity mapping references unknown concept {entry.concept!r}")
        if concept.sla_ref is None:
            continue
        sla = d.sla(concept.sla_ref)
        if sla is None:
            raise DsprocError(f"concept {entry.concept!r} references undeclared SLA "
                              f"{concept.sla_ref!r}")
        out.append((uid, sla))
    return out


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)
