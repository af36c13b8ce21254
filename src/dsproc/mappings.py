"""Concept/activity mappings, the persistent UID registry and sync merge.

The registry keys every generated element by its path
``<process>/<node id>[/<inner node id>...]`` and hands out stable opaque
uids, so regenerating an unchanged process allocates nothing new and edits
to a generated BPMN file can be reconciled against the original mapping.
The whole mapping state round-trips through ``mappings.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional

from .diagnostics import (DsprocError, json_check, json_elements, json_field, json_members,
                          load_input)


class MappingError(DsprocError):
    pass


class UidRegistry:
    """Injective path -> uid map; persisted entries are never reassigned."""

    def __init__(self, entries: Optional[Dict[str, str]] = None):
        self._entries: Dict[str, str] = dict(entries or {})
        self._taken = set(self._entries.values())
        if len(self._taken) != len(self._entries):
            raise MappingError("uid registry is not injective")
        self._next = 1 + max(
            (int(u[1:]) for u in self._taken if u.startswith("u") and u[1:].isdigit()),
            default=0,
        )
        self.new_allocations = 0

    def uid_for(self, path: str) -> str:
        uid = self._entries.get(path)
        if uid is not None:
            return uid
        while f"u{self._next}" in self._taken:
            self._next += 1
        uid = f"u{self._next}"
        self._next += 1
        self._entries[path] = uid
        self._taken.add(uid)
        self.new_allocations += 1
        return uid

    @property
    def entries(self) -> Dict[str, str]:
        return dict(self._entries)


@dataclass(frozen=True)
class AmEntry:
    concept: str
    process: str
    element: str


# The union of per-process activity -> concept maps, keyed by uid
ActivityMappings = Dict[str, AmEntry]


def build_cm(d) -> Dict[str, List[str]]:
    """Concept mappings: each concept with services, mapped to its service list."""
    return {c.name: list(c.service_refs) for c in d.concepts if c.service_refs}


def build_am(model) -> ActivityMappings:
    """The activity map of a pivot model produced by ``to_common``.

    Subprocess container elements are tagged with their concept too, but
    only leaf activities enter the map: monitoring needs leaf timings.
    """
    am: ActivityMappings = {}
    for element, owner in _walk_tagged(model):
        concept = owner.concept_tags.get(element.uid)
        if concept is not None and element.kind != "subprocess":
            am[element.uid] = AmEntry(concept, model.name, element.uid)
    return am


def _walk_tagged(model) -> Iterator:
    """Yield (element, owning model) pairs; tags live on the owning level."""
    for element in model.elements:
        yield element, model
        if element.kind == "subprocess" and element.inner is not None:
            yield from _walk_tagged(element.inner)


class MergeResult(NamedTuple):
    technical_additions: List[str]
    broken: List[str]
    added: List[str]


def merge_enriched(generated, edited, am: ActivityMappings) -> MergeResult:
    """Reconcile an externally edited BPMN file with its generated original.

    ``am`` is the activity map the edited file was generated under, i.e. the
    mapping store as loaded. Elements present only in the edited file and
    carrying no concept reference are reported as technical additions.
    Of the generated activities the edit lacks, those in ``am`` were removed
    by the edit and are reported as broken; the others are new to the model
    since the edited file was generated and are reported as added.
    """
    from . import bpmn  # local import to avoid a module cycle

    gen_elements = list(bpmn.walk_elements(generated))
    edited_elements = list(bpmn.walk_elements(edited))
    gen_ids = {e.id for e in gen_elements}
    edited_uids = {e.concept_uid for e in edited_elements if e.concept_uid}

    additions = [e.id for e in edited_elements
                 if e.id not in gen_ids and e.concept_uid is None]
    lacking = [e for e in gen_elements if e.concept_uid and e.concept_uid not in edited_uids]
    broken = [e.concept_uid for e in lacking if e.concept_uid in am]
    # a subprocess container is no activity, so it is never in am
    added = [e.concept_uid for e in lacking
             if e.concept_uid not in am and e.kind != "subProcess"]
    return MergeResult(additions, broken, added)


@dataclass
class MappingStore:
    """Everything ``mappings.json`` holds: CM, AM and the uid registry."""

    domain: str
    cm: Dict[str, List[str]] = field(default_factory=dict)
    am: ActivityMappings = field(default_factory=dict)
    uids: Dict[str, str] = field(default_factory=dict)

    def registry(self) -> UidRegistry:
        return UidRegistry(self.uids)

    def update_process(self, process: str, am: ActivityMappings,
                       registry: UidRegistry) -> None:
        """Replace this process's AM entries and absorb new uid allocations."""
        kept = {u: e for u, e in self.am.items() if e.process != process}
        kept.update((u, e) for u, e in am.items() if e.process == process)
        self.am = kept
        self.uids = registry.entries

    def to_json(self) -> str:
        doc = {
            "domain": self.domain,
            "cm": {k: self.cm[k] for k in sorted(self.cm)},
            "am": {
                uid: {"concept": e.concept, "process": e.process, "element": e.element}
                for uid, e in sorted(self.am.items())
            },
            "uids": {k: self.uids[k] for k in sorted(self.uids)},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def store_from_json(text: str) -> MappingStore:
    doc = json_check(json.loads(text), "object")
    am = {
        uid: AmEntry(json_field(e, "concept", "string", path),
                     json_field(e, "process", "string", path),
                     json_field(e, "element", "string", path))
        for uid, e, path in json_members(doc, "am", "object")
    }
    cm = json_field(doc, "cm", "object", default={})
    return MappingStore(
        domain=json_field(doc, "domain", "string"),
        cm={k: json_elements(cm, k, "string", "cm") for k in cm},
        am=am,
        uids={node_path: uid for node_path, uid, _ in json_members(doc, "uids", "string")},
    )


def load_store(path) -> MappingStore:
    return load_input(path, store_from_json)


def save_store(store: MappingStore, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(store.to_json())
