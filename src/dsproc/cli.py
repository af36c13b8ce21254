"""Command-line front end: check, gen, sync, bind, run, monitor.

Every command is a pure file transformation: identical inputs produce
identical outputs. Exit codes: 0 success, 1 diagnostics or errors,
2 broken concept mappings or model nodes missing from the edited file (sync).

Each ``cmd_*`` function imports the modules it runs, so a command starts
without loading, or compiling, the modules of the others.
"""

from __future__ import annotations

import argparse
import os
import sys

from .diagnostics import DsprocError, ParseError, load_input, reading

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .bpmn import BpmnModel
    from .domain import Domain
    from .mappings import ActivityMappings, MappingStore

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BROKEN = 2


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _load(path: str, parse, validate):
    """The model ``parse`` reads from ``path``; the first error ``validate``
    finds in it is raised, located in ``path``."""
    model = load_input(path, parse)
    with reading(path):
        for diagnostic in validate(model):
            if diagnostic.severity == "error":
                raise ParseError(diagnostic.message, diagnostic.line, diagnostic.column)
    return model


def _load_store(path: str, d: Domain) -> MappingStore:
    from . import mappings
    if os.path.exists(path):
        store = mappings.load_store(path)
        if store.domain != d.name:
            raise DsprocError(
                f"{path} belongs to domain {store.domain!r}, not {d.name!r}")
        return store
    return mappings.MappingStore(domain=d.name)


def _generate(proc_path: str, domain_path: str, mappings_path: str
              ) -> tuple[BpmnModel, MappingStore, ActivityMappings]:
    """Generate a process's BPMN model into its mapping store.

    Returns the model, the updated store and the store's AM as loaded.
    """
    from . import bpmn, domain as dom, mappings, pivot, process as proc
    d = _load(domain_path, dom.parse_domain, dom.validate_domain)
    model = _load(proc_path, lambda text: proc.parse_process(text, d),
                  lambda m: proc.validate_process(m, d))
    store = _load_store(mappings_path, d)
    loaded_am = store.am
    registry = store.registry()
    common = pivot.to_common(model, d, registry)
    generated = bpmn.generate_bpmn(common, d.name)
    am = mappings.build_am(common)
    store.cm = mappings.build_cm(d)
    store.update_process(model.name, am, registry)
    return generated, store, loaded_am


def _print_diagnostics(path: str, diagnostics) -> int:
    """Print every diagnostic of the input at ``path``; exit 1 if any is an error."""
    status = EXIT_OK
    for diagnostic in diagnostics:
        print(f"{path}: {diagnostic}")
        if diagnostic.severity == "error":
            status = EXIT_ERROR
    return status


def cmd_check(args) -> int:
    from . import domain as dom, process as proc
    d = load_input(args.domain, dom.parse_domain)
    status = _print_diagnostics(args.domain, dom.validate_domain(d))
    for path in args.processes:
        try:
            model = load_input(path, lambda text: proc.parse_process(text, d))
        except (DsprocError, OSError) as exc:
            status = _fail(str(exc))
            continue
        status = max(status, _print_diagnostics(path, proc.validate_process(model, d)))
    return status


def cmd_gen(args) -> int:
    from . import bpmn, mappings
    generated, store, _ = _generate(args.process, args.domain, args.mappings)
    _write(args.output, bpmn.serialize_bpmn(generated))
    mappings.save_store(store, args.mappings)
    return EXIT_OK


def cmd_sync(args) -> int:
    from . import bpmn, mappings
    generated, store, loaded_am = _generate(args.process, args.domain, args.mappings)
    text, edited = load_input(args.edited, lambda text: (text, bpmn.parse_bpmn(text)))
    result = mappings.merge_enriched(generated, edited, loaded_am)
    _write(args.output, text)
    for element_id in result.technical_additions:
        print(f"technical addition: {element_id}")
    for uid in result.broken:
        print(f"broken mapping: uid {uid} was removed from the edited model", file=sys.stderr)
    path_of = {uid: path for path, uid in store.uids.items()}
    for uid in result.added:
        print(f"model addition: uid {uid} ({path_of[uid]}) is missing from the edited model",
              file=sys.stderr)
    return EXIT_BROKEN if result.broken or result.added else EXIT_OK


def cmd_bind(args) -> int:
    from . import deploy, domain as dom, mappings
    d = _load(args.domain, dom.parse_domain, dom.validate_domain)
    store = mappings.load_store(args.mappings)
    table = deploy.load_bindings(args.bindings)
    known = sorted({path.split("/", 1)[0] for path in store.uids})
    manifest = deploy.bind_services(d, table, store.am, args.process,
                                    known_processes=known)
    _write(args.output, deploy.emit_manifest(manifest))
    return EXIT_OK


def cmd_run(args) -> int:
    from . import bpmn, deploy, engine
    model = load_input(args.bpmn, bpmn.parse_bpmn)
    manifest = deploy.load_manifest(args.manifest)
    cfg = load_input(args.sim, engine.SimulationConfig.from_json) if args.sim \
        else engine.SimulationConfig()
    if args.instances is not None:
        cfg = cfg._replace(instance_count=args.instances)
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    # simulate checks the whole input before the first event: an error names
    # the BPMN file when the model is at fault, and otherwise --sim, or the
    # manifest, whose profile names a run without --sim cannot resolve
    try:
        records = engine.simulate(model, manifest, cfg)
    except engine.ModelError as exc:
        raise DsprocError(f"{args.bpmn}: {exc}") from None
    except engine.ConfigError as exc:
        raise DsprocError(f"{args.sim or args.manifest}: {exc}") from None
    _write(args.output, engine.render_log(records, cfg))
    return EXIT_OK


def cmd_monitor(args) -> int:
    from . import domain as dom, mappings, monitor
    d = _load(args.domain, dom.parse_domain, dom.validate_domain)
    store = mappings.load_store(args.mappings)
    with reading(args.events), open(args.events, "r", encoding="utf-8") as fh:
        probes = monitor.ingest(fh, store.am)
    propagated = dom.propagate_sla(d, store.am)
    with reading(args.events):  # the log's durations may add up past the largest float
        alerts = monitor.evaluate_alerts(probes, propagated, store.am)
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


def main(argv: list[str] | None = None) -> int:
    """Run one command; any toolchain or file error becomes ``error: …`` and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DsprocError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
