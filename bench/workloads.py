"""The benchmark's workloads: their inputs, command chains and checks.

A workload writes its seeded inputs, may prepare them with dsproc commands
(``prep``), and then repeats a chain of commands (``chain``). Both are
generators of :class:`Command`; code between two ``yield`` statements is
the benchmark's own untimed work (editing a generated file, concatenating
logs), so the same chain drives a subprocess pass, an in-process pass and
a traced pass. ``check`` compares a finished pass against the oracles.
"""

from __future__ import annotations

import hashlib
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import inputs
import oracles


@dataclass(frozen=True)
class Command:
    label: str  # unique within a pass, e.g. "run Proc3"
    argv: List[str]

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Result:
    command: Command
    exit_code: int
    wall_s: float
    stdout: str
    stderr: str
    maxrss_kb: int = 0  # measured for subprocesses only


def _exception_probs(bpmn_path: Path, p: float) -> Dict[str, Dict[str, float]]:
    """Branch probabilities for the gateways that lower exceptional flows:
    the ``exception`` branch is taken with probability ``p``."""
    process = ET.parse(bpmn_path).getroot().find(f"{{{inputs.BPMN_NS}}}process")
    out: Dict[str, Dict[str, float]] = {}
    for flow in process.iter(f"{{{inputs.BPMN_NS}}}sequenceFlow"):
        gateway = flow.get("sourceRef")
        if not gateway.endswith("_exc"):
            continue
        cond = flow.find(f"{{{inputs.BPMN_NS}}}conditionExpression")
        exceptional = cond is not None and cond.text == "exception"
        out.setdefault(gateway, {})[flow.get("id")] = p if exceptional else 1.0 - p
    return out


def _write_sim(path: Path, bpmn_path: Path, instances: int, seed: int, p_exception: float,
               fault_probs: Optional[Dict[str, float]] = None) -> None:
    path.write_text(inputs.render_sim(instances, seed, _exception_probs(bpmn_path, p_exception),
                                      fault_probs), encoding="utf-8")


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why each workload exists

    def __init__(self, seed: int, scale: float, smoke: bool):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.scale = scale
        self.smoke = smoke
        self.reference: Dict[str, str] = {}  # output digests of the first checked pass
        self.domain: inputs.DomainSpec
        self.processes: List[inputs.ProcessSpec] = []

    def size(self, full: int, tiny: int) -> int:
        return max(1, round((tiny if self.smoke else full) * self.scale))

    def write_common(self, d: Path) -> None:
        (d / "domain.dsml").write_text(inputs.render_domain(self.domain), encoding="utf-8")
        (d / "bindings.json").write_text(inputs.render_bindings(self.domain), encoding="utf-8")
        for p in self.processes:
            (d / f"{p.name}.dsproc").write_text(p.source, encoding="utf-8")

    def generate(self, d: Path) -> None:
        raise NotImplementedError

    def prep(self, d: Path) -> Iterator[Command]:
        return iter(())

    def chain(self, d: Path) -> Iterator[Command]:
        raise NotImplementedError

    def monitor_logs(self, d: Path) -> List[Path]:
        raise NotImplementedError

    def check(self, d: Path, results: List[Result]) -> Dict[str, List[str]]:
        raise NotImplementedError

    # command builders; every path is absolute so the working directory is moot
    def gen(self, d: Path, p: str) -> Command:
        return Command(f"gen {p}", ["gen", str(d / f"{p}.dsproc"), "--domain", str(d / "domain.dsml"),
                                    "--mappings", str(d / "mappings.json"), "-o", str(d / f"{p}.bpmn")])

    def bind(self, d: Path, p: str) -> Command:
        return Command(f"bind {p}", ["bind", "--domain", str(d / "domain.dsml"),
                                     "--bindings", str(d / "bindings.json"),
                                     "--mappings", str(d / "mappings.json"),
                                     "--process", p, "-o", str(d / f"{p}.manifest.json")])

    def monitor(self, d: Path, log: Path) -> Command:
        return Command("monitor", ["monitor", str(log), "--mappings", str(d / "mappings.json"),
                                   "--domain", str(d / "domain.dsml"),
                                   "--report", str(d / "report.json"),
                                   "--alert-out", str(d / "alerts.jsonl")])

    def check_determinism(self, paths: List[Path]) -> List[str]:
        out = []
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.reference.setdefault(path.name, digest) != digest:
                out.append(f"{path.name} differs from the first pass at the same seed")
        return out

    def check_report(self, d: Path, instances: Dict[str, int]) -> List[str]:
        events, _headers = oracles.log_events(self.monitor_logs(d))
        return oracles.check_report(events, d / "report.json", d / "alerts.jsonl",
                                    oracles.load_am(d / "mappings.json"), self.domain, instances)


class CompileLarge(Workload):
    name = "compile_large"
    process = "Big"

    def generate(self, d: Path) -> None:
        n = self.size(1000, 20)
        self.domain = inputs.make_domain(self.rng, n, n // 10)
        self.processes = [inputs.make_process(self.rng, self.process, self.domain,
                                              self.size(88, 2), 0.2)]
        self.n_technical = self.size(24, 3)
        self.instances = 2
        self.write_common(d)

    def chain(self, d: Path) -> Iterator[Command]:
        p = self.process
        yield Command("check", ["check", str(d / "domain.dsml"), str(d / f"{p}.dsproc")])
        yield self.gen(d, p)
        # the modeller's edit of the generated file, seeded like every input
        xml, self.planted = inputs.enrich_bpmn(
            random.Random(f"edit:{self.seed}"), (d / f"{p}.bpmn").read_text(encoding="utf-8"),
            self.n_technical)
        (d / "edited.bpmn").write_text(xml, encoding="utf-8")
        # no exception fires, so both instances walk the whole model
        _write_sim(d / "sim.json", d / f"{p}.bpmn", self.instances, self.seed, 0.0)
        yield Command("sync", ["sync", str(d / f"{p}.dsproc"), "--domain", str(d / "domain.dsml"),
                               "--mappings", str(d / "mappings.json"),
                               "--edited", str(d / "edited.bpmn"), "-o", str(d / "merged.bpmn")])
        yield self.bind(d, p)
        yield Command("run", ["run", str(d / "merged.bpmn"), "--manifest",
                              str(d / f"{p}.manifest.json"), "--sim", str(d / "sim.json"),
                              "--instances", str(self.instances), "-o", str(d / "events.jsonl")])
        yield self.monitor(d, d / "events.jsonl")

    def monitor_logs(self, d: Path) -> List[Path]:
        return [d / "events.jsonl"]

    def check(self, d: Path, results: List[Result]) -> Dict[str, List[str]]:
        p = self.processes[0]
        am = oracles.load_am(d / "mappings.json")
        sync = next(r for r in results if r.command.kind == "sync")
        return {
            f"gen {p.name}": oracles.check_uid_multiset(
                d / f"{p.name}.bpmn", am, p.name, inputs.leaf_concepts(p, self.domain))
            + self.check_determinism([d / f"{p.name}.bpmn"]),
            "sync": oracles.check_sync_output(sync.exit_code, sync.stdout, self.planted),
            f"bind {p.name}": oracles.check_manifest(
                d / f"{p.name}.manifest.json", am, p.name, self.domain),
            "run": self.check_determinism([d / "events.jsonl"]),
            "monitor": self.check_report(d, {p.name: self.instances}),
        }


class EventHeavy(Workload):
    name = "event_heavy"
    process = "Flow"

    def generate(self, d: Path) -> None:
        self.domain = inputs.make_domain(self.rng, self.size(40, 12), 1)
        self.processes = [inputs.make_process(self.rng, self.process, self.domain,
                                              self.size(2, 1), 0.2)]
        self.instances = self.size(1100, 20)
        self.write_common(d)

    def prep(self, d: Path) -> Iterator[Command]:
        p = self.process
        yield self.gen(d, p)
        uids = sorted(oracles.load_am(d / "mappings.json"), key=lambda u: int(u[1:]))
        faults = {uid: 0.05 for uid in random.Random(f"faults:{self.seed}").sample(uids, 3)}
        _write_sim(d / "sim.json", d / f"{p}.bpmn", self.instances, self.seed, 0.02, faults)
        yield self.bind(d, p)

    def chain(self, d: Path) -> Iterator[Command]:
        p = self.process
        yield Command("run", ["run", str(d / f"{p}.bpmn"), "--manifest",
                              str(d / f"{p}.manifest.json"), "--sim", str(d / "sim.json"),
                              "-o", str(d / "events.jsonl")])
        yield self.monitor(d, d / "events.jsonl")

    def monitor_logs(self, d: Path) -> List[Path]:
        return [d / "events.jsonl"]

    def check(self, d: Path, results: List[Result]) -> Dict[str, List[str]]:
        return {
            "run": self.check_determinism([d / "events.jsonl"]),
            "monitor": self.check_report(d, {self.process: self.instances}),
        }


class EnterpriseWide(Workload):
    name = "enterprise_wide"

    def generate(self, d: Path) -> None:
        self.domain = inputs.make_domain(self.rng, self.size(40, 12), 2)
        self.processes = [inputs.make_process(self.rng, f"Proc{i}", self.domain,
                                              self.size(4, 1), 0.2)
                          for i in range(1, (3 if self.smoke else 12) + 1)]
        self.instances = self.size(30, 5)
        self.write_common(d)

    def chain(self, d: Path) -> Iterator[Command]:
        yield Command("check", ["check", str(d / "domain.dsml")]
                      + [str(d / f"{p.name}.dsproc") for p in self.processes])
        for i, p in enumerate(self.processes, start=1):
            yield self.gen(d, p.name)
            _write_sim(d / f"{p.name}.sim.json", d / f"{p.name}.bpmn", self.instances,
                       self.seed * 100 + i, 0.02)
            yield self.bind(d, p.name)
            yield Command(f"run {p.name}", [
                "run", str(d / f"{p.name}.bpmn"), "--manifest", str(d / f"{p.name}.manifest.json"),
                "--sim", str(d / f"{p.name}.sim.json"), "-o", str(d / f"{p.name}.jsonl")])
        # monitor takes one log: the per-process logs, each with its header
        with open(d / "all.jsonl", "wb") as out:
            for log in self.monitor_logs(d):
                out.write(log.read_bytes())
        yield self.monitor(d, d / "all.jsonl")

    def monitor_logs(self, d: Path) -> List[Path]:
        return [d / f"{p.name}.jsonl" for p in self.processes]

    def check(self, d: Path, results: List[Result]) -> Dict[str, List[str]]:
        am = oracles.load_am(d / "mappings.json")
        out: Dict[str, List[str]] = {}
        for p in self.processes:
            out[f"gen {p.name}"] = oracles.check_uid_multiset(
                d / f"{p.name}.bpmn", am, p.name, inputs.leaf_concepts(p, self.domain))
            out[f"bind {p.name}"] = oracles.check_manifest(
                d / f"{p.name}.manifest.json", am, p.name, self.domain)
            out[f"run {p.name}"] = self.check_determinism([d / f"{p.name}.jsonl"])
        out["monitor"] = self.check_report(d, {p.name: self.instances for p in self.processes})
        return out


WORKLOADS = {w.name: w for w in (CompileLarge, EventHeavy, EnterpriseWide)}
