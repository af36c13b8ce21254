#!/usr/bin/env python3
"""Benchmark of the dsproc command-line toolchain.

Usage, from the root of a checkout:

    python3 bench/run.py --workload compile_large --seed 1 --seconds 15 --trace 0

It runs dsproc as users do: each command is a fresh ``python -m dsproc.cli``
process importing dsproc from ``src/`` of this checkout, one at a time (a
closed loop with a single client). Inputs come from ``--seed`` only. Every
pass is checked against oracles in ``oracles.py``, outside the timed
commands. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the chain in this process as well,
with spans around the calls into each module, and reports per-layer
metrics. ``--smoke`` runs the same code at tiny sizes. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional

import oracles
from spans import COUNT_NAMES, SPAN_NAMES, Tracer
from workloads import WORKLOADS, Command, Result, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # a run ends within 180 s; a command still running then is killed
SCALED = ("process.parse_process", "pivot.to_common", "bpmn.generate_bpmn",
          "bpmn.serialize_bpmn", "bpmn.parse_bpmn", "deploy.bind_services")

END_TO_END = {"setup_s": "s", "chain_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.commands": "count",
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    **{name: "count" for name in COUNT_NAMES},
    "monitor.lines": "count", "monitor.useful_line_ratio": "ratio",
    **{f"{name}.scale2x": "ratio" for name in SCALED},
    "trace.overhead_pct": "%",
}

Runner = Callable[[Command], Result]


class Run:
    """One benchmark run: its work directory, deadline and operation counts."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def new_workload(self, scale: float = 1.0) -> Workload:
        return WORKLOADS[self.workload](self.seed, scale, self.smoke)

    def subprocess_runner(self, cmd: Command) -> Result:
        with tempfile.TemporaryFile(dir=self.dir) as out, \
                tempfile.TemporaryFile(dir=self.dir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dsproc.cli", *cmd.argv],
                                    cwd=self.dir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(cmd, proc.returncode, wall, out.read().decode("utf-8", "replace"),
                          err.read().decode("utf-8", "replace"), usage.ru_maxrss)

    def inprocess_runner(self, tracer: Optional[Tracer] = None) -> Runner:
        from dsproc import cli

        def run(cmd: Command) -> Result:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    with tracer.span(f"cli.{cmd.kind}") if tracer else contextlib.nullcontext():
                        code = cli.main(cmd.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                wall = time.perf_counter() - start
            return Result(cmd, code, wall, out.getvalue(), err.getvalue())
        return run

    def fresh(self, name: str, source: Path) -> Path:
        target = self.dir / name
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(source, target)
        return target

    def execute(self, w: Workload, commands: Iterator[Command], runner: Runner,
                d: Path) -> List[Result]:
        return self.record(w, d, [runner(cmd) for cmd in commands])

    def record(self, w: Workload, d: Path, results: List[Result]) -> List[Result]:
        """Check the outputs of ``results`` in ``d`` and count the operations.

        Each command is one operation; it fails on a non-zero exit code or
        when a check of its output fails.
        """
        findings = {r.command.label: [f"exit {r.exit_code}: {r.stderr.strip()[-200:]}"]
                    for r in results if r.exit_code != 0}
        try:
            checked = w.check(d, results)
        except Exception as exc:  # a check that cannot read its outputs fails them all
            checked = {r.command.label: [f"check raised {exc!r}"] for r in results}
        for label, messages in checked.items():
            if messages:
                findings.setdefault(label, []).extend(messages)
        self.problems += [f"{label}: {m}" for label, ms in findings.items() for m in ms]
        self.attempted += len(results)
        self.failed += len(findings)
        return results

    def setup(self) -> Workload:
        """Input generation and one checked warm-up pass.

        The warm-up pass runs the same commands on the smoke-size inputs of
        the same seed: it fills the bytecode caches at a fraction of the
        cost of a full pass.
        """
        w = self.new_workload()
        raw = self.dir / "raw"
        shutil.rmtree(raw, ignore_errors=True)
        raw.mkdir()
        w.generate(raw)
        tiny = WORKLOADS[self.workload](self.seed, 1.0, smoke=True)
        d = self.dir / "warmup"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        tiny.generate(d)
        self.execute(tiny, steps(tiny, d), self.subprocess_runner, d)
        return w


def steps(w: Workload, d: Path) -> Iterator[Command]:
    """One pass: the workload's preparation, then its chain."""
    yield from w.prep(d)
    yield from w.chain(d)


def tail(values: List[float]) -> Optional[dict]:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return {f"p{q:g}": sorted(values)[math.ceil(q / 100 * n) - 1]}
    return None


def events_in(paths: List[Path]) -> int:
    """Event lines of the logs, headers excluded, counted without decoding them."""
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if not line.startswith('{"log_version"'))
    return total


def measure(run: Run, seconds: float) -> Dict[str, List[float]]:
    """End-to-end samples, plus diagnostics that are not metrics:
    ``events_per_s`` and each command's wall times as ``<command>_s``."""
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in range(SETUPS):
        start = time.perf_counter()
        w = run.setup()
        samples["setup_s"].append(time.perf_counter() - start)
    raw = run.dir / "raw"
    start = time.monotonic()
    while not samples["chain_s"] or time.monotonic() - start < seconds:
        d = run.fresh("pass", raw)
        prep = [run.subprocess_runner(cmd) for cmd in w.prep(d)]
        chain = [run.subprocess_runner(cmd) for cmd in w.chain(d)]
        results = run.record(w, d, prep + chain)
        samples["chain_s"].append(sum(r.wall_s for r in chain))
        samples["peak_rss_mb"].append(max(r.maxrss_kb for r in results) / 1024)
        events = events_in(w.monitor_logs(d))
        samples["events_per_s"].append(events / sum(
            r.wall_s for r in chain if r.command.kind in ("run", "monitor")))
        for r in results:
            samples[f"{r.command.kind}_s"].append(r.wall_s)
    return samples


def measure_traced(run: Run, seconds: float) -> Dict[str, List[float]]:
    sys.path.insert(0, str(SRC))
    import dsproc
    if Path(dsproc.__file__).resolve().parent != SRC / "dsproc":
        raise SystemExit(f"error: imported dsproc from {dsproc.__file__}, not {SRC}")

    w = run.setup()
    raw = run.dir / "raw"
    tracer = Tracer()
    samples: Dict[str, List[float]] = {name: [] for name in PER_LAYER}
    start = time.monotonic()
    while not samples["cli.commands"] or time.monotonic() - start < seconds:
        # the three variants advance command by command, so drift over the
        # pass affects them alike
        dirs = [run.fresh(name, raw) for name in ("sub", "plain", "traced")]
        runners = [run.subprocess_runner, run.inprocess_runner(), run.inprocess_runner(tracer)]
        sub, plain, traced = [], [], []
        tracer.pass_id += 1
        for cmds in zip(*(steps(w, d) for d in dirs)):
            sub.append(runners[0](cmds[0]))
            plain.append(runners[1](cmds[1]))
            with tracer.instrument():
                traced.append(runners[2](cmds[2]))
        for d, results in zip(dirs, (sub, plain, traced)):
            run.record(w, d, results)
        self_s, counts = tracer.totals(tracer.pass_id)
        for name in SPAN_NAMES:
            samples[f"{name}_s"].append(self_s.get(name, 0.0))
        for name in COUNT_NAMES:
            samples[name].append(counts.get(name, 0.0))
        samples["cli.startup_s"].append(median([s.wall_s - p.wall_s for s, p in zip(sub, plain)]))
        samples["cli.commands"].append(len(traced))
        plain_s = sum(r.wall_s for r in plain)
        samples["trace.overhead_pct"].append(
            100.0 * (sum(r.wall_s for r in traced) - plain_s) / plain_s)
        events, headers = oracles.log_events(w.monitor_logs(dirs[2]))
        samples["monitor.lines"].append(len(events) + headers)
        samples["monitor.useful_line_ratio"].append(oracles.useful_line_ratio(events, headers))

    # the same workload with its models and domain at half size
    half = run.new_workload(0.5)
    half_raw = run.dir / "half"
    half_raw.mkdir()
    half.generate(half_raw)
    d = run.fresh("pass", half_raw)
    tracer.pass_id = -1
    with tracer.instrument():
        run.execute(half, steps(half, d), run.inprocess_runner(tracer), d)
    half_s, _counts = tracer.totals(-1)
    for name in SCALED:
        full = median(samples[f"{name}_s"])
        samples[f"{name}.scale2x"].append(full / half_s[name] if half_s.get(name) else 0.0)
    tracer.dump(WORK / f"spans-{run.workload}-seed{run.seed}.jsonl")
    return samples


def context() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercises every command and check quickly")
    args = parser.parse_args(argv)
    if not (SRC / "dsproc" / "cli.py").is_file():
        print(f"error: no dsproc sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            samples, units = measure_traced(run, args.seconds), PER_LAYER
        else:
            samples, units = measure(run, args.seconds), END_TO_END
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {name: {"n": len(v), "median": median(v), **(tail(v) or {})}
              for name, v in samples.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "context": context(),
                      "samples": detail}))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
