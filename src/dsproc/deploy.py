"""Two-step service binding: concept -> abstract services -> concrete endpoints.

Abstract services come from the domain; a binding table maps each one to a
concrete endpoint (a URI plus an optional duration profile used by the
simulator). Binding a process produces a deployment manifest with one row
per mapped activity, carrying the full uid -> concept -> services ->
endpoints chain.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .diagnostics import (DsprocError, json_check, json_elements, json_field, json_members,
                          load_input, parse_json)

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .domain import Domain
    from .mappings import ActivityMappings


class BindingError(DsprocError):
    pass


Binding = namedtuple("Binding", "endpoint profile", defaults=(None,))

BindingTable = dict[str, Binding]


def bindings_from_json(text: str) -> BindingTable:
    doc = json_check(parse_json(text), "object")
    return {name: Binding(json_field(entry, "endpoint", "string", path),
                          json_field(entry, "profile", "string", path, None))
            for name, entry, path in json_members(doc, "bindings", "object")}


def load_bindings(path) -> BindingTable:
    return load_input(path, bindings_from_json)


EndpointRef = namedtuple("EndpointRef", "service endpoint profile", defaults=(None,))
# one mapped activity: its abstract ``services`` and their ``endpoints``
ManifestRow = namedtuple("ManifestRow", "uid element concept services endpoints")
# ``rows`` are ordered by uid
DeploymentManifest = namedtuple("DeploymentManifest", "process rows", defaults=((),))


def bind_services(d: Domain, table: BindingTable, am: ActivityMappings,
                  process: str, known_processes: list[str] | None = None) -> DeploymentManifest:
    """Resolve every mapped activity of ``process`` to concrete endpoints.

    ``known_processes`` (when given) distinguishes a process with no mapped
    activities from a process that does not exist at all.
    """
    if known_processes is not None and process not in known_processes:
        raise BindingError(f"unknown process {process!r}")
    for name in table:
        if d.service(name) is None:
            raise BindingError(f"binding for unknown service {name!r}")

    rows: list[ManifestRow] = []
    missing: list[str] = []
    for uid, entry in sorted(am.items()):
        if entry.process != process:
            continue
        concept = d.concept(entry.concept)
        if concept is None:
            raise BindingError(f"mapped concept {entry.concept!r} missing from domain")
        endpoints: list[EndpointRef] = []
        for svc in concept.service_refs:
            binding = table.get(svc)
            if binding is None:
                if svc not in missing:
                    missing.append(svc)
                continue
            endpoints.append(EndpointRef(svc, binding.endpoint, binding.profile))
        rows.append(ManifestRow(uid, entry.element, entry.concept,
                                list(concept.service_refs), endpoints))
    if missing:
        raise BindingError("unbound abstract services: " + ", ".join(sorted(missing)))
    return DeploymentManifest(process, rows)


def emit_manifest(m: DeploymentManifest) -> str:
    doc = {
        "process": m.process,
        "activities": {
            r.uid: {
                "element": r.element,
                "concept": r.concept,
                "services": r.services,
                "endpoints": [e._asdict() for e in r.endpoints],
            }
            for r in m.rows
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_manifest(text: str) -> DeploymentManifest:
    doc = json_check(parse_json(text), "object")
    process = json_field(doc, "process", "string")
    rows = []
    for uid, entry, path in json_members(doc, "activities", "object"):
        endpoints = []
        for i, e in enumerate(json_elements(entry, "endpoints", "object", path)):
            where = f"{path}.endpoints[{i}]"
            endpoints.append(EndpointRef(json_field(e, "service", "string", where),
                                         json_field(e, "endpoint", "string", where),
                                         json_field(e, "profile", "string", where, None)))
        rows.append(ManifestRow(
            uid, json_field(entry, "element", "string", path),
            json_field(entry, "concept", "string", path),
            json_elements(entry, "services", "string", path), endpoints))
    rows.sort(key=lambda r: r.uid)
    return DeploymentManifest(process, rows)


def load_manifest(path) -> DeploymentManifest:
    return load_input(path, parse_manifest)
