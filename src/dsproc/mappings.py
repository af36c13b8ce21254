"""Concept/activity mappings, the persistent UID registry and sync merge.

The registry keys every generated element by its path
``<process>/<node id>[/<inner node id>...]`` and hands out stable opaque
uids, so regenerating an unchanged process allocates nothing new and edits
to a generated BPMN file can be reconciled against the original mapping.
The whole mapping state round-trips through ``mappings.json``.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .diagnostics import (DsprocError, json_check, json_elements, json_field, json_members,
                          load_input, parse_json)


class MappingError(DsprocError):
    pass


class UidRegistry:
    """Injective path -> uid map; persisted entries are never reassigned."""

    def __init__(self, entries: dict[str, str] | None = None):
        self._entries: dict[str, str] = dict(entries or {})
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
    def entries(self) -> dict[str, str]:
        return dict(self._entries)


AmEntry = namedtuple("AmEntry", "concept process element")

# The union of per-process activity -> concept maps, keyed by uid
ActivityMappings = dict[str, AmEntry]


def build_cm(d) -> dict[str, list[str]]:
    """Concept mappings: each concept with services, mapped to its service list."""
    return {c.name: list(c.service_refs) for c in d.concepts if c.service_refs}


def build_am(model) -> ActivityMappings:
    """The activity map of a pivot model produced by ``to_common``.

    Subprocess container elements carry their concept too, but only leaf
    activities enter the map: monitoring needs leaf timings.
    """
    am: ActivityMappings = {}
    levels = [model]
    for level in levels:  # grows as the loop meets each subprocess
        for element in level.elements:
            if element.inner is not None:
                levels.append(element.inner)
            elif element.concept is not None:
                am[element.uid] = AmEntry(element.concept, model.name, element.uid)
    return am


MergeResult = namedtuple("MergeResult", "technical_additions broken added")


def merge_enriched(generated, edited, am: ActivityMappings) -> MergeResult:
    """Reconcile an externally edited BPMN file with its generated original.

    ``am`` is the activity map the edited file was generated under, i.e. the
    mapping store as loaded. Elements present only in the edited file and
    carrying no concept reference are reported as technical additions.
    Of the generated activities the edit lacks, those in ``am`` were removed
    by the edit and are reported as broken; the others are new to the model
    since the edited file was generated and are reported as added.
    """
    from . import bpmn  # here, not at the top: bind must run without loading dsproc.bpmn

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


class MappingStore:
    """Everything ``mappings.json`` holds: CM, AM and the uid registry."""

    __slots__ = ("domain", "cm", "am", "uids")

    def __init__(self, domain: str, cm: dict[str, list[str]] | None = None,
                 am: ActivityMappings | None = None, uids: dict[str, str] | None = None):
        self.domain = domain
        self.cm = {} if cm is None else cm
        self.am = {} if am is None else am
        self.uids = {} if uids is None else uids

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
            "am": {uid: e._asdict() for uid, e in sorted(self.am.items())},
            "uids": {k: self.uids[k] for k in sorted(self.uids)},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def store_from_json(text: str) -> MappingStore:
    doc = json_check(parse_json(text), "object")
    am = {uid: AmEntry(*(json_field(e, key, "string", path) for key in AmEntry._fields))
          for uid, e, path in json_members(doc, "am", "object")}
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
