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
from .diagnostics import DsprocError, ParseError
from .lexer import escape, stream

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import Diagnostic

SLA_METRICS = ("max_duration", "max_mean_duration", "max_fault_rate")
TIME_UNITS = {"ms": 1.0, "s": 1000.0, "min": 60_000.0, "h": 3_600_000.0, "d": 86_400_000.0}
SLA_UNITS = tuple(TIME_UNITS) + ("ratio",)
SLA_SEVERITIES = ("info", "warning", "critical")

# DSService, Sla and DSConcept carry the ``line`` they are declared on; it
# takes no part in ==, hash or repr, so a domain equals its re-parsed text.


class DSService(namedtuple("DSService", "name operation")):
    line = None

    def __new__(cls, name: str, operation: str, line: int | None = None) -> DSService:
        service = tuple.__new__(cls, (name, operation))
        service.line = line
        return service


class Sla(namedtuple("Sla", "name metric threshold unit severity")):
    line = None

    def __new__(cls, name: str, metric: str, threshold: float, unit: str, severity: str,
                line: int | None = None) -> Sla:
        sla = tuple.__new__(cls, (name, metric, threshold, unit, severity))
        sla.line = line
        return sla

    def threshold_ms(self) -> float:
        """Threshold converted to milliseconds (duration metrics only)."""
        if self.unit == "ratio":
            raise DsprocError(f"SLA {self.name!r} has no duration threshold")
        return self.threshold * TIME_UNITS[self.unit]


class DSConcept(namedtuple("DSConcept", "name label version service_refs sla_ref "
                                        "depends_on subprocess")):
    line = None

    def __new__(cls, name: str, label: str, version: int = 1,
                service_refs: tuple[str, ...] = (), sla_ref: str | None = None,
                depends_on: tuple[str, ...] = (), subprocess: proc.ProcessBody | None = None,
                line: int | None = None) -> DSConcept:
        concept = tuple.__new__(cls, (name, label, version, service_refs, sla_ref,
                                      depends_on, subprocess))
        concept.line = line
        return concept


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
    ts = stream(source)
    ts.expect("domain")
    name = ts.expect_ident().value
    ts.expect("{")
    concepts: list[DSConcept] = []
    services: list[DSService] = []
    slas: list[Sla] = []

    while not ts.at("}"):
        tok = ts.peek()
        if ts.accept("service"):
            svc_tok = ts.expect_ident()
            ts.expect("{")
            ts.expect("operation")
            operation = ts.expect_string().value
            ts.expect("}")
            services.append(DSService(svc_tok.value, operation, svc_tok.line))
        elif ts.accept("sla"):
            sla_tok = ts.expect_ident()
            ts.expect("{")
            metric_tok = ts.expect_ident()
            if metric_tok.value not in SLA_METRICS:
                raise ParseError(f"unknown SLA metric {metric_tok.value!r}",
                                 metric_tok.line, metric_tok.column)
            threshold = ts.expect_number()
            unit_tok = ts.expect_ident()
            if unit_tok.value not in SLA_UNITS:
                raise ParseError(f"unknown SLA unit {unit_tok.value!r}",
                                 unit_tok.line, unit_tok.column)
            ts.expect("severity")
            sev_tok = ts.expect_ident()
            if sev_tok.value not in SLA_SEVERITIES:
                raise ParseError(f"unknown SLA severity {sev_tok.value!r}",
                                 sev_tok.line, sev_tok.column)
            ts.expect("}")
            slas.append(Sla(sla_tok.value, metric_tok.value, threshold, unit_tok.value,
                            sev_tok.value, sla_tok.line))
        elif ts.accept("concept"):
            concepts.append(_parse_concept(ts))
        else:
            raise ParseError(f"expected 'concept', 'service' or 'sla', found {tok.describe()}",
                             tok.line, tok.column)
    ts.expect("}")
    if not ts.at_eof():
        tok = ts.peek()
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)

    return Domain(name, tuple(concepts), tuple(services), tuple(slas))


def _parse_concept(ts) -> DSConcept:
    name_tok = ts.expect_ident()
    ts.expect("{")
    ts.expect("label")
    label = ts.expect_string().value
    version = 1
    service_refs: tuple[str, ...] = ()
    sla_ref = None
    depends_on: tuple[str, ...] = ()
    subprocess = None
    seen = set()
    while not ts.at("}"):
        key_tok = ts.expect_ident()
        key = key_tok.value
        if key in seen:
            raise ParseError(f"duplicate {key!r} clause in concept {name_tok.value!r}",
                             key_tok.line, key_tok.column)
        seen.add(key)
        if key == "version":
            version = int(ts.expect_number())
            if version < 1:
                raise ParseError("version must be >= 1", key_tok.line, key_tok.column)
        elif key == "services":
            service_refs = _ident_list(ts)
        elif key == "sla":
            sla_ref = ts.expect_ident().value
        elif key == "depends_on":
            depends_on = _ident_list(ts)
        elif key == "subprocess":
            ts.expect("{")
            subprocess = proc.parse_body(ts)
            ts.expect("}")
        else:
            raise ParseError(f"unknown concept clause {key!r}", key_tok.line, key_tok.column)
    ts.expect("}")
    return DSConcept(name_tok.value, label, version, service_refs, sla_ref, depends_on,
                     subprocess, name_tok.line)


def _ident_list(ts) -> tuple[str, ...]:
    ts.expect("[")
    items = [ts.expect_ident().value]
    while ts.accept(","):
        items.append(ts.expect_ident().value)
    ts.expect("]")
    return tuple(items)


def validate_domain(d: Domain) -> list[Diagnostic]:
    """Invariant check over a structurally complete domain; empty means valid.

    A diagnostic about one declaration carries the line it is declared on.
    """
    out: list[Diagnostic] = []
    seen_c: set = set()
    for c in d.concepts:
        if c.name in seen_c:
            out.append(diag.error(f"duplicate concept name {c.name!r}", c.line))
        seen_c.add(c.name)
    seen_s: set = set()
    for s in d.services:
        if s.name in seen_s:
            out.append(diag.error(f"duplicate service name {s.name!r}", s.line))
        seen_s.add(s.name)
    seen_sla: set = set()
    for s in d.slas:
        if s.name in seen_sla:
            out.append(diag.error(f"duplicate SLA name {s.name!r}", s.line))
        seen_sla.add(s.name)
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
            if ref not in seen_s:
                out.append(diag.error(
                    f"concept {c.name!r} references undeclared service {ref!r}", c.line))
        if c.sla_ref is not None and c.sla_ref not in seen_sla:
            out.append(diag.error(
                f"concept {c.name!r} references undeclared SLA {c.sla_ref!r}", c.line))
        for dep in c.depends_on:
            if dep not in seen_c:
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
                if node.concept not in seen_c:
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
    """One diagnostic per back edge of a depth-first walk over ``deps``, and
    the names in the order the walk finished them: each after every name it
    reaches other than through a back edge.

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
                out.append(diag.error(f"{what}: " + " -> ".join(cycle)))
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
