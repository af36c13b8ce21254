"""In-memory spans around calls into dsproc's modules.

:func:`instrument` rebinds a module's public functions to timing wrappers
for the duration of a ``with`` block. Callers inside dsproc look these
functions up as module attributes, so ``cli.main(argv)`` then runs the very
calls its ``cmd_*`` function makes, each inside a span whose parent is the
innermost open span. Spans are kept in memory; :meth:`Tracer.dump` writes
them out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _pivot_elements(model) -> int:
    return sum(1 + (_pivot_elements(e.inner) if e.inner is not None else 0)
               for e in model.elements)


# (module, function, span name, counts taken from (args, kwargs, result)).
# Span names are the per-layer metric names without the "_s" suffix.
CountFn = Optional[Callable[[tuple, dict, object], Dict[str, float]]]
PROBES: Tuple[Tuple[str, str, str, CountFn], ...] = (
    ("lexer", "tokenize", "lexer.tokenize",
     lambda a, k, r: {"lexer.tokens": len(r)}),
    ("domain", "parse_domain", "domain.parse_domain",
     lambda a, k, r: {"domain.concepts": len(r.concepts)}),
    ("domain", "validate_domain", "domain.validate_domain", None),
    ("domain", "propagate_sla", "domain.propagate_sla", None),
    ("process", "parse_process", "process.parse_process",
     lambda a, k, r: {"process.nodes": len(r.body.nodes)}),
    ("process", "validate_process", "process.validate_process", None),
    ("pivot", "to_common", "pivot.to_common",
     lambda a, k, r: {"pivot.elements": _pivot_elements(r),
                      "mappings.uid_allocations": a[2].new_allocations}),
    ("bpmn", "generate_bpmn", "bpmn.generate_bpmn", None),
    ("bpmn", "serialize_bpmn", "bpmn.serialize_bpmn",
     lambda a, k, r: {"bpmn.xml_bytes": len(r)}),
    ("bpmn", "parse_bpmn", "bpmn.parse_bpmn",
     lambda a, k, r: {"bpmn.xml_bytes": len(a[0])}),
    ("mappings", "load_store", "mappings.load_store",
     lambda a, k, r: {"mappings.store_bytes": os.path.getsize(a[0])}),
    ("mappings", "save_store", "mappings.save_store",
     lambda a, k, r: {"mappings.store_bytes": os.path.getsize(a[1])}),
    ("mappings", "build_am", "mappings.build_am", None),
    ("mappings", "merge_enriched", "mappings.merge_enriched", None),
    ("deploy", "bind_services", "deploy.bind_services",
     lambda a, k, r: {"deploy.rows": len(r.rows)}),
    ("deploy", "emit_manifest", "deploy.emit_manifest", None),
    ("deploy", "load_manifest", "deploy.load_manifest", None),
    ("engine", "simulate", "engine.simulate",
     lambda a, k, r: {"engine.events": len(r)}),
    ("engine", "render_log", "engine.render_log",
     lambda a, k, r: {"engine.log_bytes": len(r)}),
    ("monitor", "ingest", "monitor.ingest", None),
    ("monitor", "evaluate_alerts", "monitor.evaluate_alerts",
     lambda a, k, r: {"monitor.alerts": len(r)}),
    ("monitor", "build_report", "monitor.build_report", None),
    ("monitor", "render_report_json", "monitor.render_report", None),
    ("monitor", "render_report_text", "monitor.render_report", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _m, _f, name, _c in PROBES))
COUNT_NAMES = ("lexer.tokens", "domain.concepts", "process.nodes", "pivot.elements",
               "bpmn.xml_bytes", "mappings.uid_allocations", "mappings.store_bytes",
               "deploy.rows", "engine.events", "engine.log_bytes", "monitor.alerts")


@dataclass
class Span:
    pass_id: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        s = Span(self.pass_id, name, 0.0, parent)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += s.end - s.start

    def totals(self, pass_id: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self seconds per span name and summed counts, for one pass."""
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.pass_id != pass_id:
                continue
            self_s[s.name] += s.self_s
            for key, value in s.counts.items():
                counts[key] += value
        return self_s, counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "pass": s.pass_id, "name": s.name,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "counts": s.counts}) + "\n")

    def _wrap(self, fn, name: str, count: CountFn):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def instrument(self) -> Iterator[None]:
        saved = []
        try:
            for module_name, fn_name, name, count in PROBES:
                module = importlib.import_module(f"dsproc.{module_name}")
                fn = getattr(module, fn_name)
                saved.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(fn, name, count))
            yield
        finally:
            for module, fn_name, fn in reversed(saved):
                setattr(module, fn_name, fn)
