import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import pytest
from hypothesis import strategies as st

from dsproc import bpmn, cli, deploy, domain as dom, engine, mappings, pivot
from dsproc import process as proc

FIXTURES = Path(__file__).parent / "fixtures"
# the README walkthrough's sources, then what its gen, bind and run write
SOURCES = ("order_handling.dsml", "order_handling.dsproc", "bindings.json", "sim.json")
WALKTHROUGH = SOURCES + ("mappings.json", "order.bpmn", "manifest.json", "events.jsonl")


def copy_walkthrough(work: Path, names=SOURCES, source: Path = FIXTURES) -> Path:
    """``work``, with the files ``names`` of the walkthrough copied from ``source``."""
    for name in names:
        shutil.copy(source / name, work / name)
    return work


@pytest.fixture(scope="session")
def walkthrough(tmp_path_factory) -> Path:
    """The directory of the README walkthrough: its sources, and what its gen,
    bind and run wrote. Every test that needs it shares it, so no test writes
    into it; a test copies what it changes."""
    work = copy_walkthrough(tmp_path_factory.mktemp("walkthrough"))
    store = ["--domain", str(work / "order_handling.dsml"),
             "--mappings", str(work / "mappings.json")]
    for argv in (
        ["gen", str(work / "order_handling.dsproc"), *store, "-o", str(work / "order.bpmn")],
        ["bind", *store, "--bindings", str(work / "bindings.json"),
         "--process", "HandleOrder", "-o", str(work / "manifest.json")],
        ["run", str(work / "order.bpmn"), "--manifest", str(work / "manifest.json"),
         "--sim", str(work / "sim.json"), "-o", str(work / "events.jsonl")],
    ):
        assert cli.main(argv) == 0, argv[0]
    return work


@pytest.fixture(scope="session", autouse=True)
def utf8_table():
    """Hypothesis builds its table of the characters UTF-8 encodes when a
    strategy first needs it (``st.from_regex`` does), in about 2 s where
    ``.hypothesis/`` holds no copy yet. Built before the first test, that
    one-time cost falls in no test's draw timing, which the ``too_slow``
    health check bounds at 1 s."""
    st.characters(codec="utf-8").validate()


@pytest.fixture(scope="session")
def order_domain_text() -> str:
    return (FIXTURES / "order_handling.dsml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def order_process_text() -> str:
    return (FIXTURES / "order_handling.dsproc").read_text(encoding="utf-8")


@pytest.fixture
def order_domain(order_domain_text) -> dom.Domain:
    return dom.parse_domain(order_domain_text)


@pytest.fixture
def order_process(order_domain, order_process_text) -> proc.ProcessModel:
    return proc.parse_process(order_process_text, order_domain)


@dataclass
class Pipeline:
    domain: dom.Domain
    model: proc.ProcessModel
    common: pivot.CommonModel
    generated: bpmn.BpmnModel
    xml: str
    am: mappings.ActivityMappings
    store: mappings.MappingStore


def compile_pipeline(d: dom.Domain, model: proc.ProcessModel,
                     store: Optional[mappings.MappingStore] = None) -> Pipeline:
    """Run parse -> pivot -> BPMN -> mappings, mirroring the gen command."""
    store = store or mappings.MappingStore(domain=d.name)
    common = pivot.to_common(model, d, store)
    generated = bpmn.generate_bpmn(common, d.name)
    am = mappings.build_am(common)
    store.update_process(model.name, am)
    return Pipeline(d, model, common, generated, bpmn.serialize_bpmn(generated),
                    am, store)


@pytest.fixture
def order_pipeline(order_domain, order_process) -> Pipeline:
    return compile_pipeline(order_domain, order_process)


def fixed_bindings(d: dom.Domain, profile: str = "p100") -> deploy.BindingTable:
    return {s.name: deploy.Binding(f"sim://{s.name}", profile) for s in d.services}


def fixed_config(instances: int = 1, seed: int = 1, value: float = 100.0,
                 **kwargs) -> engine.SimulationConfig:
    cfg = engine.SimulationConfig(
        instance_count=instances, seed=seed,
        profiles={"p100": engine.DurationProfile("fixed", value=value)},
        **kwargs)
    cfg.validate()
    return cfg


def compile_sources(domain_text: str, process_text: str,
                    store: Optional[mappings.MappingStore] = None) -> Pipeline:
    d = dom.parse_domain(domain_text)
    model = proc.parse_process(process_text, d)
    return compile_pipeline(d, model, store)


def log_lines(records, cfg) -> List[str]:
    return engine.render_log(records, cfg).splitlines()
