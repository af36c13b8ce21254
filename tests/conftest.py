import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from dsproc import bpmn, deploy, domain as dom, engine, mappings, pivot
from dsproc import process as proc

FIXTURES = Path(__file__).parent / "fixtures"


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
    registry: mappings.UidRegistry


def compile_pipeline(d: dom.Domain, model: proc.ProcessModel,
                     store: Optional[mappings.MappingStore] = None) -> Pipeline:
    """Run parse -> pivot -> BPMN -> mappings, mirroring the gen command."""
    store = store or mappings.MappingStore(domain=d.name)
    registry = store.registry()
    common = pivot.to_common(model, d, registry)
    generated = bpmn.generate_bpmn(common, d.name)
    am = mappings.build_am(common)
    store.cm = mappings.build_cm(d)
    store.update_process(model.name, am, registry)
    return Pipeline(d, model, common, generated, bpmn.serialize_bpmn(generated),
                    am, store, registry)


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
