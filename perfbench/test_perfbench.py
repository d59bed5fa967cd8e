"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(label, experiment, parameters, **extra):
    config = dict(experiment=experiment, parameters=parameters, **extra)
    gates = {"tdse_run": (workloads.gate_norm,),
             "count_maximizer": (workloads.gate_bounds,)}.get(label, ())
    return workloads.Entry(label, config, config, gates=gates)


TINY = [
    tiny("eprb_scan", "eprb-scan", {"steps": 4, "trials": 3000}, seed=7),
    tiny("sg_scan", "sg-scan", {"steps": 4, "trials": 3000}, seed=7),
    tiny("tise_minimize", "tise-minimize", {"n_points": 31, "max_iter": 40}),
    tiny("tise_solve", "tise-solve", {"n_points": 101, "n_states": 2}),
    tiny("tdse_run", "tdse-run", {"n_points": 201, "t_final": 0.03}),
    tiny("gauge_check", "gauge-check", {"n_points": 201, "t_final": 0.01}),
    tiny("count_maximizer", "count-maximizer",
         {"probs": [0.2, 0.3, 0.5], "n_total": 12, "n_outcomes": 3}),
]


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


@pytest.fixture
def threads(monkeypatch):
    monkeypatch.setenv(worker.THREADS_ENV, "2")


def declared(section):
    return {m["name"] for m in BENCH[section]}


def test_uninstall_restores_every_original(cli):
    modules = {mod: tracing._module(mod) for mod, _, _, _ in tracing.TARGETS}
    originals = {(mod, attr): getattr(modules[mod], attr)
                 for mod, attr, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.installed_wrappers()) == len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    for (mod, attr), original in originals.items():
        assert getattr(modules[mod], attr) is original


def test_untraced_calls_never_see_wrappers(cli, threads, tmp_path,
                                           monkeypatch):
    seen = []
    call = worker.Runner.call

    def spy(self, entry, config):
        if self.tracer is None:
            seen.append(tracing.installed_wrappers())
        return call(self, entry, config)

    monkeypatch.setattr(worker.Runner, "call", spy)
    result = worker.traced(cli, "scan", TINY, 0.0, tmp_path / "out")
    assert result["failed"] == 0 and result["problems"] == []
    assert seen and all(wrappers == [] for wrappers in seen)
    assert tracing.installed_wrappers() == []


def test_spans_nest_and_self_times_are_nonnegative(cli, threads, tmp_path):
    tracer = tracing.Tracer()
    runner = worker.Runner(cli, tmp_path, tracer)
    tracer.install()
    try:
        runner.one_pass(TINY)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert runner.failed == 0
    assert {s.name for s in spans} >= {t[2] for t in tracing.TARGETS}
    assert tracing.check_spans(spans) == []
    kids = tracing.children_by_parent(spans)
    by_id = {s.sid: s for s in spans}
    for span in spans:
        assert tracing.self_time(span, kids.get(span.sid, [])) >= 0
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert span.request == parent.request


def test_check_spans_reports_a_child_outside_its_parent():
    parent = tracing.Span(0, None, 0, "cli.run", 1, start=0.0, end=1.0)
    child = tracing.Span(1, 0, 0, "rng.tally", 1, start=0.5, end=1.5)
    assert tracing.check_spans([parent, child]) != []


def test_every_printed_name_is_declared(cli, threads, tmp_path):
    for section in ("end_to_end", "per_layer"):
        for name in declared(section):
            assert NAME.match(name), name
    untraced = worker.untraced(cli, TINY, 0.0, tmp_path / "a")
    assert set(untraced["metrics"]) | {"setup_s"} == declared("end_to_end")
    traced = worker.traced(cli, "scan", TINY, 0.0, tmp_path / "b")
    assert set(traced["metrics"]) == declared("per_layer")
    # names run.py writes to standard error
    stderr_names = {f"{label}_s" for label in worker.EXPERIMENTS}
    stderr_names.add("cli.fail_ratio")
    assert stderr_names <= declared("per_layer")
    assert set(worker.EXACT_COUNTS) <= declared("per_layer")


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert workloads.build(name, workloads.DEFAULT_SEED)


def test_a_changed_output_counts_as_a_failure(cli, threads, tmp_path):
    config = TINY[-1].config
    entry = workloads.Entry("count_maximizer", config, config,
                            digests={"assignments.csv": "0" * 64})
    runner = worker.Runner(cli, tmp_path)
    runner.call(entry, entry.config)
    assert (runner.attempted, runner.failed) == (1, 1)
