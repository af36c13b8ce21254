"""Concept/activity mappings, the persistent UID registry and sync merge.

The mapping store's registry keys every generated element by its path
``<process>/<node id>[/<inner node id>...]`` and hands out stable opaque
uids, so regenerating an unchanged process allocates nothing new and edits
to a generated BPMN file can be reconciled against the original mapping.
The whole mapping state round-trips through ``mappings.json``.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .diagnostics import (DsprocError, json_check, json_field, json_members, load_input,
                          parse_json)


class MappingError(DsprocError):
    pass


# a mapped activity: its concept and its process; the uid keys it
AmEntry = namedtuple("AmEntry", "concept process")

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
                am[element.uid] = AmEntry(element.concept, model.name)
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
    """Everything ``mappings.json`` holds: its domain's name, the AM and the
    uid registry. Each uid is that of one node path, and each AM entry's uid
    that of a node of its process: a store is checked where it is made."""

    __slots__ = ("domain", "am", "uids", "path_of", "new_allocations", "_next")

    def __init__(self, domain: str, am: ActivityMappings | None = None,
                 uids: dict[str, str] | None = None):
        self.domain = domain
        self.am = {} if am is None else am
        self.uids = {} if uids is None else uids
        # the inverse of uids: each uid's node path
        self.path_of = {uid: path for path, uid in self.uids.items()}
        if len(self.path_of) != len(self.uids):
            seen: dict[str, str] = {}
            for path, uid in self.uids.items():
                if seen.setdefault(uid, path) != path:
                    raise MappingError(f"uid {uid} is the uid of both {seen[uid]} and {path}")
        for uid, entry in self.am.items():
            path = self.path_of.get(uid)
            if path is None:
                raise MappingError(f"uid {uid} maps concept {entry.concept!r}, "
                                   f"but no node path has it")
            if path.partition("/")[0] != entry.process:
                raise MappingError(f"uid {uid} maps an activity of process {entry.process!r}, "
                                   f"but is the uid of node path {path}")
        self.new_allocations = 0
        self._next = None  # the next uid's number, found at the first allocation

    def uid_for(self, path: str) -> str:
        """The uid of node ``path``; a new one if it has none yet."""
        uid = self.uids.get(path)
        if uid is not None:
            return uid
        if self._next is None:
            # past every numeric uid taken, so no uid it makes is taken
            self._next = 1 + max((int(u[1:]) for u in self.path_of
                                  if u.startswith("u") and u[1:].isdecimal()), default=0)
        uid = f"u{self._next}"
        self._next += 1
        self.uids[path] = uid
        self.path_of[uid] = path
        self.new_allocations += 1
        return uid

    def processes(self) -> set[str]:
        """The processes this store holds, those ``gen`` wrote into it: the
        first segment of each node path in the uid registry."""
        return {path.partition("/")[0] for path in self.uids}

    def update_process(self, process: str, am: ActivityMappings) -> None:
        """Replace this process's AM entries by ``am``, the AM of ``process``."""
        self.am = {u: e for u, e in self.am.items() if e.process != process} | am

    def to_json(self) -> str:
        doc = {
            "domain": self.domain,
            "am": {uid: e._asdict() for uid, e in self.am.items()},
            "uids": self.uids,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def store_from_json(text: str) -> MappingStore:
    doc = json_check(parse_json(text), "object")
    am = {uid: AmEntry(*(json_field(e, key, "string", path) for key in AmEntry._fields))
          for uid, e, path in json_members(doc, "am", "object")}
    return MappingStore(
        domain=json_field(doc, "domain", "string"),
        am=am,
        uids={node_path: uid for node_path, uid, _ in json_members(doc, "uids", "string")},
    )


def load_store(path) -> MappingStore:
    return load_input(path, store_from_json)


def save_store(store: MappingStore, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(store.to_json())
