"""Command-line front end: check, gen, sync, bind, run, monitor.

Every command is a pure file transformation: identical inputs produce
identical outputs. Exit codes: 0 success, 1 diagnostics or errors,
2 broken concept mappings or model nodes missing from the edited file (sync).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import bpmn, deploy, domain as dom, engine, mappings, monitor, pivot, process as proc
from .diagnostics import DsprocError, ParseError, load_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BROKEN = 2


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _load_domain(path: str) -> dom.Domain:
    try:
        return dom.parse_domain(_read(path))
    except ParseError as exc:
        raise DsprocError(f"{path}:{exc}") from None


def _load_process(path: str, d: dom.Domain) -> proc.ProcessModel:
    try:
        return proc.parse_process(_read(path), d)
    except ParseError as exc:
        raise DsprocError(f"{path}:{exc}") from None


def _load_store(path: str, d: dom.Domain) -> mappings.MappingStore:
    if Path(path).exists():
        store = mappings.load_store(path)
        if store.domain != d.name:
            raise DsprocError(
                f"{path} belongs to domain {store.domain!r}, not {d.name!r}")
        return store
    return mappings.MappingStore(domain=d.name)


def _generate(proc_path: str, domain_path: str, mappings_path: str
              ) -> Tuple[bpmn.BpmnModel, mappings.MappingStore, mappings.ActivityMappings]:
    """Generate a process's BPMN model into its mapping store.

    Returns the model, the updated store and the store's AM as loaded.
    """
    d = _load_domain(domain_path)
    model = _load_process(proc_path, d)
    store = _load_store(mappings_path, d)
    loaded_am = store.am
    registry = store.registry()
    common = pivot.to_common(model, d, registry)
    generated = bpmn.generate_bpmn(common, d.name)
    am = mappings.build_am(common)
    store.cm = mappings.build_cm(d)
    store.update_process(model.name, am, registry)
    return generated, store, loaded_am


def cmd_check(args) -> int:
    status = EXIT_OK
    d = _load_domain(args.domain)
    for diagnostic in dom.validate_domain(d):
        print(f"{args.domain}: {diagnostic}")
        if diagnostic.severity == "error":
            status = EXIT_ERROR
    for path in args.processes:
        try:
            model = _load_process(path, d)
        except (DsprocError, OSError) as exc:
            status = _fail(str(exc))
            continue
        for diagnostic in proc.validate_process(model, d):
            print(f"{path}: {diagnostic}")
            if diagnostic.severity == "error":
                status = EXIT_ERROR
    return status


def cmd_gen(args) -> int:
    generated, store, _ = _generate(args.process, args.domain, args.mappings)
    _write(args.output, bpmn.serialize_bpmn(generated))
    mappings.save_store(store, args.mappings)
    return EXIT_OK


def cmd_sync(args) -> int:
    generated, store, loaded_am = _generate(args.process, args.domain, args.mappings)
    text = _read(args.edited)
    edited = bpmn.parse_bpmn(text)
    result = mappings.merge_enriched(generated, edited, loaded_am)
    _write(args.output, text)
    for element_id in result.technical_additions:
        print(f"technical addition: {element_id}")
    for uid in result.broken:
        print(f"broken mapping: uid {uid} was removed from the edited model", file=sys.stderr)
    # activities the model gained since the edited file was generated
    edited_uids = {e.concept_uid for e in bpmn.walk_elements(edited)}
    path_of = {uid: path for path, uid in store.uids.items()}
    added = [uid for uid in store.am if uid not in loaded_am and uid not in edited_uids]
    for uid in added:
        print(f"model addition: uid {uid} ({path_of[uid]}) is missing from the edited model",
              file=sys.stderr)
    return EXIT_BROKEN if result.broken or added else EXIT_OK


def cmd_bind(args) -> int:
    d = _load_domain(args.domain)
    store = mappings.load_store(args.mappings)
    table = deploy.load_bindings(args.bindings)
    known = sorted({path.split("/", 1)[0] for path in store.uids})
    manifest = deploy.bind_services(d, table, store.am, args.process,
                                    known_processes=known)
    _write(args.output, deploy.emit_manifest(manifest))
    return EXIT_OK


def cmd_run(args) -> int:
    model = bpmn.parse_bpmn(_read(args.bpmn))
    manifest = deploy.load_manifest(args.manifest)
    cfg = load_json(args.sim, engine.SimulationConfig.from_json) if args.sim \
        else engine.SimulationConfig()
    if args.instances is not None:
        cfg.instance_count = args.instances
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    records = engine.simulate(model, manifest, cfg)
    _write(args.output, engine.render_log(records, cfg))
    return EXIT_OK


def cmd_monitor(args) -> int:
    d = _load_domain(args.domain)
    store = mappings.load_store(args.mappings)
    with open(args.events, "r", encoding="utf-8") as fh:
        probes = monitor.ingest(fh, store.am)
    propagated = dom.propagate_sla(d, store.am)
    monitor.register_sla(
        probes, monitor.propagated_to_concepts(propagated, store.am))
    alerts = monitor.evaluate_alerts(probes)
    report = monitor.build_report(probes, store)
    if args.report:
        _write(args.report, monitor.render_report_json(report))
    if args.alert_out:
        _write(args.alert_out,
               "".join(a.to_json_line() + "\n" for a in alerts))
    sys.stdout.write(monitor.render_report_text(report))
    for alert in alerts:
        print(f"ALERT [{alert.severity}] {alert.subject}: {alert.metric} "
              f"observed {alert.observed:g} > threshold {alert.threshold:g} "
              f"(sla {alert.sla})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsproc",
        description="Domain-specific process modelling, generation, simulation "
                    "and monitoring toolchain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a domain and its process models")
    p.add_argument("domain")
    p.add_argument("processes", nargs="*")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate BPMN from a process model")
    p.add_argument("process")
    p.add_argument("--domain", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sync", help="reconcile an edited BPMN file with its source")
    p.add_argument("process")
    p.add_argument("--domain", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("--edited", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_sync)

    p = sub.add_parser("bind", help="bind abstract services to endpoints")
    p.add_argument("--domain", required=True)
    p.add_argument("--bindings", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("--process", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_bind)

    p = sub.add_parser("run", help="simulate a deployed process")
    p.add_argument("bpmn")
    p.add_argument("--manifest", required=True)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sim", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("monitor", help="aggregate an event log into a report and alerts")
    p.add_argument("events")
    p.add_argument("--mappings", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--alert-out", dest="alert_out", default=None)
    p.set_defaults(fn=cmd_monitor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; any toolchain or file error becomes ``error: …`` and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DsprocError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
