"""Runs one workload in this process and prints its raw results as JSON.

``run.py`` starts this file in a fresh interpreter with the thread variables
pinned, so the process's peak RSS belongs to this workload alone.  The
untraced mode never imports ``tracing``; the traced mode alternates untraced
and traced passes and installs the wrappers only around the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREADS_ENV = "ROBUSTQ_THREADS"

# Per-layer metrics that count work and must repeat bit for bit across runs
# of the same code.  A traced run fails if they differ between its passes.
EXACT_COUNTS = (
    "rng.tally.calls", "rng.philox.blocks", "stationary.objgrad.calls",
    "stationary.minimize.iterations", "dynamic.cn_step.calls",
    "inference.maximizer.compositions", "cli.emit_bytes",
)
EXPERIMENTS = ("eprb_scan", "sg_scan", "tise_minimize", "tise_solve",
               "tdse_run", "gauge_check", "count_maximizer")


def import_cli():
    """robustq.cli from this checkout's ``src``, never an installed copy."""
    import robustq.cli
    src = (ROOT / "src").resolve()
    if src not in Path(robustq.cli.__file__).resolve().parents:
        raise RuntimeError(f"robustq imported from {robustq.cli.__file__}, "
                           f"not from {src}")
    return robustq.cli


class Runner:
    """Issues cli.run calls one after another and checks every output."""

    def __init__(self, cli, out_root: Path, tracer=None):
        self.cli = cli
        self.out_root = out_root
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, Dict[str, str]] = {}
        self.files: Dict[str, Dict[str, bytes]] = {}

    def _fail(self, label: str, problems: List[str]) -> None:
        if not problems:
            return
        self.failed += 1
        for problem in problems:
            print(f"perfbench: {label}: {problem}", file=sys.stderr)

    def call(self, entry: workloads.Entry, config: dict) -> float:
        """Wall time of one cli.run of ``config``; checks its outputs."""
        out_dir = self.out_root / entry.label
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.request():
                    manifest = self.cli.run(config, output_dir=str(out_dir))
            else:
                manifest = self.cli.run(config, output_dir=str(out_dir))
        except Exception:  # a failed call is counted; the loop goes on
            elapsed = time.perf_counter() - start
            self._fail(entry.label, [traceback.format_exc()])
            return elapsed
        elapsed = time.perf_counter() - start
        if manifest.status != "ok":
            self._fail(entry.label, [f"status {manifest.status}: "
                                     f"{manifest.error}"])
            return elapsed
        files = {o["name"]: (out_dir / o["name"]).read_bytes()
                 for o in manifest.output_files}
        if config is entry.config:
            self._fail(entry.label, self.check(entry, files))
            self.files[entry.label] = files
        return elapsed

    def check(self, entry: workloads.Entry,
              files: Dict[str, bytes]) -> List[str]:
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in files.items()}
        problems = []
        if entry.digests is not None and digests != entry.digests:
            problems.append(f"CSV digests {digests} differ from the pinned "
                            f"{entry.digests}")
        first = self.reference.setdefault(entry.label, digests)
        if digests != first:
            problems.append("CSV bytes differ from the first pass")
        for gate in entry.gates:
            problems.extend(gate(files))
        return problems

    def warm_up(self, entries) -> None:
        for entry in entries:
            self.call(entry, entry.warmup)

    def one_pass(self, entries) -> Dict[str, float]:
        return {entry.label: self.call(entry, entry.config)
                for entry in entries}


def medians(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {label: statistics.median(p[label] for p in passes)
            for label in passes[0]}


def untraced(cli, entries, seconds: float, out_root: Path) -> dict:
    runner = Runner(cli, out_root)
    runner.warm_up(entries)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.one_pass(entries))
    per_exp = medians(passes)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": [],
        "passes": len(passes),
        "metrics": {
            "batch_s": sum(per_exp.values()),
            "run_geomean_s": statistics.geometric_mean(per_exp.values()),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "experiments": per_exp,
    }


def layer_metrics(spans, files: Dict[str, Dict[str, bytes]],
                  workers: int, block_size: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    import tracing

    kids = tracing.children_by_parent(spans)
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(tracing.self_time(s, kids.get(s.sid, []))
                   for s in by_name.get(name, ()))

    def noted(name, key):
        return sum(s.notes[key] for s in by_name.get(name, ()))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    # compute time of a request: from the end of validation to the first
    # CSV emission (or the end of the request when nothing was emitted)
    compute = {}
    for request in by_name.get("cli.run", ()):
        children = kids.get(request.sid, [])
        validated = max((c.end for c in children if c.name == "cli.validate"),
                        default=request.start)
        emits = [c.start for c in children if c.name == "cli.emit"]
        compute[request.sid] = min(emits, default=request.end) - validated
    rng_requests = {s.request for s in by_name.get("rng.tally", ())}

    tally_busy = busy("rng.tally")
    trials = noted("rng.tally", "n_trials")
    blocks = calls("rng.philox")
    emit_s = busy("cli.emit")
    emit_bytes = noted("cli.emit", "bytes")
    iterations = noted("stationary.minimize", "iterations")
    objgrad = calls("stationary.objgrad")
    compositions = noted("inference.maximizer", "compositions")
    out = {
        "rng.tally.calls": calls("rng.tally"),
        "rng.tally.busy_s": tally_busy,
        "rng.tally.ns_per_trial": ratio(tally_busy, trials, 1e9),
        "rng.tally.self_s": self_s("rng.tally"),
        "rng.uniforms.busy_s": busy("rng.uniforms"),
        "rng.philox.blocks": blocks,
        "rng.block_use_ratio": ratio(noted("rng.uniforms", "count"),
                                     blocks * block_size),
        "cli.pool_eff": ratio(tally_busy, workers * sum(
            compute[r] for r in rng_requests)),
        "cli.emit_s": emit_s,
        "cli.emit_bytes": emit_bytes,
        "cli.emit_mb_per_s": ratio(emit_bytes, emit_s, 1e-6),
        "cli.validate_s": busy("cli.validate"),
        "cli.compute_s": sum(compute.values()),
        "stationary.objgrad.calls": objgrad,
        "stationary.objgrad.us_per_call": ratio(busy("stationary.objgrad"),
                                                objgrad, 1e6),
        "stationary.minimize.iterations": iterations,
        "stationary.minimize.evals_per_iter": ratio(objgrad, iterations),
        "stationary.minimize.self_s": self_s("stationary.minimize"),
        "stationary.minimize.sup_diff": 0.0,
        "stationary.eigen.busy_s": busy("stationary.eigen"),
        "dynamic.cn_step.calls": calls("dynamic.cn_step"),
        "dynamic.cn_step.us_per_call": ratio(busy("dynamic.cn_step"),
                                             calls("dynamic.cn_step"), 1e6),
        "dynamic.observables.busy_s": busy("dynamic.observables"),
        "dynamic.hje_residual.busy_s": busy("dynamic.hje_residual"),
        "dynamic.gauge_transform.busy_s": busy("dynamic.gauge_transform"),
        "dynamic.propagate.self_s": self_s("dynamic.propagate"),
        "dynamic.max_norm_drift": 0.0,
        "inference.maximizer.compositions": compositions,
        "inference.maximizer.us_per_composition": ratio(
            busy("inference.maximizer"), compositions, 1e6),
        "inference.maximizer.busy_s": busy("inference.maximizer"),
    }
    if "tise_minimize" in files:
        out["stationary.minimize.sup_diff"] = workloads.column_values(
            files["tise_minimize"], "summary.csv", "sup_diff_vs_eigen")[0]
    if "tdse_run" in files:
        out["dynamic.max_norm_drift"] = workloads.max_norm_drift(
            files["tdse_run"])
    return out


def traced(cli, workload, entries, seconds: float, out_root: Path) -> dict:
    import robustq.rng
    import tracing

    runner = Runner(cli, out_root)
    runner.warm_up(entries)
    tracer = tracing.Tracer()
    traced_runner = Runner(cli, out_root, tracer)
    traced_runner.reference = runner.reference
    workers = int(os.environ[THREADS_ENV])
    plain, wrapped, layers, problems = [], [], [], []
    start = time.perf_counter()
    while not wrapped or time.perf_counter() - start < seconds:
        if len(plain) <= len(wrapped):
            wrappers = tracing.installed_wrappers()
            if wrappers:
                raise RuntimeError(f"untraced pass with wrappers on {wrappers}")
            plain.append(runner.one_pass(entries))
            continue
        tracer.install()
        try:
            wrapped.append(traced_runner.one_pass(entries))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        problems.extend(tracing.check_spans(spans))
        layers.append(layer_metrics(spans, traced_runner.files, workers,
                                    robustq.rng.BLOCK_SIZE))
    write_spans(out_root.parent / f"spans-{workload}.json", spans)

    metrics = {name: statistics.median(p[name] for p in layers)
               for name in layers[0]}
    for name in EXACT_COUNTS:
        values = {p[name] for p in layers}
        if len(values) > 1:
            problems.append(f"{name} differs between passes: "
                            f"{sorted(values)}")
    per_exp = medians(plain)
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(p.values()) for p in wrapped)
        / statistics.median(sum(p.values()) for p in plain))
    for label in EXPERIMENTS:
        metrics[f"{label}_s"] = per_exp.get(label, 0.0)

    single = {}
    if workload in workloads.THREADED:
        # same configs at one worker: the bytes must match the first pass
        os.environ[THREADS_ENV] = "1"
        try:
            single = runner.one_pass(entries)
        finally:
            os.environ[THREADS_ENV] = str(workers)
    metrics["cli.pool_speedup"] = (sum(single.values()) / sum(per_exp.values())
                                   if single else 0.0)
    for label in ("eprb_scan", "sg_scan"):
        metrics[f"cli.pool_speedup.{label}"] = (
            single[label] / per_exp[label] if label in single else 0.0)

    attempted = runner.attempted + traced_runner.attempted
    failed = runner.failed + traced_runner.failed
    metrics["cli.fail_ratio"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "passes": len(plain), "metrics": metrics, "experiments": per_exp}


def write_spans(path: Path, spans) -> None:
    """Write the spans of the last traced pass, one JSON object each."""
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({
                "id": s.sid, "parent": s.parent, "request": s.request,
                "name": s.name, "thread": s.thread, "start": s.start,
                "end": s.end, "notes": s.notes}) + "\n")


def environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cli = import_cli()
    entries = workloads.build(args.workload, args.seed)
    out_root = Path(args.out)
    try:
        if args.trace:
            result = traced(cli, args.workload, entries, args.seconds,
                            out_root)
        else:
            result = untraced(cli, entries, args.seconds, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
