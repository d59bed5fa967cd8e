"""CLI verification: config validation, CSV contract, dispatch, manifest
reproducibility, and exit codes."""

import concurrent.futures
import contextlib
import csv
import decimal
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustq
from robustq import stationary
from robustq.cli import (_BULK_MIN_VALUES, _SCHEMAS, _TOP, EMIT_CHUNK_ROWS,
                         EXPERIMENTS, build_potential, emit_csv, main, run,
                         validate_config)
from robustq.errors import ConfigError, RobustqError
from robustq.grid import Grid1D, ScalarField


def minimal_simulate_config(**overrides):
    raw = {
        "experiment": "eprb-simulate",
        "seed": 42,
        "parameters": {"theta": 1.0471975511965976, "trials": 10000},
    }
    raw.update(overrides)
    return raw


class TestValidateConfig:
    def test_minimal_config_accepted_with_defaults(self):
        config = validate_config(minimal_simulate_config())
        assert config.experiment == "eprb-simulate"
        assert config.parameters["model"] == {"kind": "singlet"}
        assert config.physics.hbar == 1.0
        assert config.physics.lam == 4.0
        assert config.physics.light_speed == 1.0

    def test_misspelled_key_rejected_by_name(self):
        raw = minimal_simulate_config()
        raw["parameters"] = {"thetta": 1.0, "trials": 100}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("thetta" in d for d in err.value.diagnostics)
        assert any("theta" in d and "required" in d
                   for d in err.value.diagnostics)

    def test_inconsistent_lambda_rejected_with_rule(self):
        # lambda is always 4 / hbar^2, so it is no key of its own
        raw = minimal_simulate_config(physics={"hbar": 1.0, "lambda": 3.0})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.diagnostics == ["physics.lambda: unknown key"]

    def test_lambda_override_with_flag(self):
        raw = minimal_simulate_config(
            physics={"hbar": 1.0, "lambda": 3.0, "default_units": False})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.diagnostics == [
            "physics.lambda: unknown key",
            "physics.default_units: unknown key"]

    def test_lambda_follows_hbar(self):
        config = validate_config(minimal_simulate_config(
            physics={"hbar": 2.0}))
        assert config.physics.lam == 1.0
        assert not hasattr(config.physics, "default_units")

    def test_missing_seed_rejected_for_stochastic(self):
        raw = minimal_simulate_config()
        del raw["seed"]
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("seed" in d for d in err.value.diagnostics)

    def test_seed_optional_for_deterministic(self):
        raw = {"experiment": "tise-solve", "parameters": {}}
        assert validate_config(raw).seed is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "frobnicate", "parameters": {}})

    def test_all_experiments_have_schemas(self):
        from robustq.cli import _SCHEMAS
        assert set(EXPERIMENTS) == set(_SCHEMAS)


class TestEmitCsv:
    def test_small_file_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv({"a": np.array([1.0, 2.0, 3.0]),
                  "b": np.array([4, 5, 6])}, str(path))
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "a,b"
        assert len(lines) == 5 and lines[-1] == ""
        assert "\r" not in path.read_bytes().decode()

    def test_floats_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.array([0.1, 1 / 3, math.pi, 1e-300, -7.25e17])
        emit_csv({"x": values}, str(path))
        body = path.read_text().strip().split("\n")[1:]
        parsed = np.array([float(v) for v in body])
        assert all(a == b for a, b in zip(parsed, values))

    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv({"x": np.array([]), "y": np.array([])}, str(path))
        assert path.read_text() == "x,y\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv({"x": np.array([1.0])}, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            emit_csv({"x": np.array(["not-a-number"])}, str(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind,n_random", [(np.float64, 10 ** 6),
                                               (np.float32, 10 ** 5)])
    def test_floats_written_as_format_17g(self, kind, n_random, tmp_path):
        # each value as format(float(v), ".17g") writes it, one per line
        with np.errstate(over="ignore", invalid="ignore"):
            values = stress_floats(n_random).astype(kind)
        path = tmp_path / "t.csv"
        emit_csv({"x": values}, str(path))
        lines = map(format, values.tolist(), itertools.repeat(".17g"))
        assert path.read_bytes() \
            == ("x\n" + "\n".join(lines) + "\n").encode()

    def test_float_table_memory_is_bounded(self, tmp_path):
        # tise-solve's states.csv at 20,001 nodes and 8 states
        columns = {f"c{j}": np.random.default_rng(j).standard_normal(20001)
                   for j in range(9)}
        emit_csv(columns, str(tmp_path / "warm.csv"))  # builds the tables
        tracemalloc.start()
        try:
            emit_csv(columns, str(tmp_path / "t.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


def stress_floats(n_random=10 ** 6):
    """Doubles where a 17-digit formatter is likeliest to slip: each power
    of ten from 1e-300 to 1e299, one and two ulps below and one above, also
    halved and times 9.999999999999999, with both signs; 1 + 2**-k, exact
    ties at 17 digits; whole numbers; dyadic fractions; short decimals;
    subnormals and the specials; then ``n_random`` random bit patterns."""
    rng = np.random.default_rng(20260601)
    powers = np.array([float(f"1e{j}") for j in range(-300, 300)])
    below = np.nextafter(powers, 0.0)
    near = np.concatenate([powers, below, np.nextafter(below, 0.0),
                           np.nextafter(powers, math.inf)])
    near = np.concatenate([near, 0.5 * near, 9.999999999999999 * near])
    short = [float(f"{d}e{e}") for d, e in zip(
        rng.integers(1, 10 ** 6, 10 ** 4).tolist(),
        rng.integers(-30, 30, 10 ** 4).tolist())]
    subnormal = rng.integers(1, 2 ** 52, 1000, dtype=np.uint64) \
        .view(np.float64)
    return np.concatenate([
        near, -near, 1.0 + 2.0 ** -np.arange(1, 53),
        np.arange(-10 ** 4, 10 ** 4 + 1), np.arange(-2 ** 14, 2 ** 14) / 1024,
        short, subnormal, -subnormal, float_specials(np.float64),
        rng.integers(0, 2 ** 64, n_random, dtype=np.uint64).view(np.float64)])


def reference_csv(columns):
    """The per-value emitter the chunked one replaced: the bytes it wrote."""
    def format_value(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    names = list(columns.keys())
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    n_rows = arrays[0].shape[0] if arrays else 0
    lines = [",".join(names)]
    for i in range(n_rows):
        lines.append(",".join(format_value(a[i]) for a in arrays))
    return ("\n".join(lines) + "\n").encode("utf-8")


def float_specials(kind):
    """NaN, +-inf, +-0.0, the extreme subnormals and normals of ``kind``."""
    info = np.finfo(kind)
    return [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1,
            float(info.smallest_subnormal), -float(info.smallest_subnormal),
            float(info.tiny), float(info.max), -float(info.max)]


# planted among random bit patterns, with the largest uint64
INT_SPECIALS = {np.int64: [0, -1, 2 ** 63 - 1, -2 ** 63],
                np.uint64: [0, 1, 2 ** 64 - 1, 2 ** 63]}


def random_column(kind, n, rng):
    if kind in (np.int64, np.uint64):
        column = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(kind)
        specials = INT_SPECIALS[kind]
    elif kind is bool:
        return rng.integers(0, 2, n).astype(bool)
    elif kind in (np.float32, np.float64):
        words = np.uint32 if kind is np.float32 else np.uint64
        column = rng.integers(0, np.iinfo(words).max, n, dtype=words,
                              endpoint=True).view(kind)
        specials = float_specials(kind)
    else:  # object: Python ints (some past 64 bits) and floats mixed
        column = np.empty(n, dtype=object)
        for i in range(n):
            column[i] = (int(rng.integers(-2 ** 62, 2 ** 62)) * 7 ** 30
                         if rng.random() < 0.5 else float(rng.standard_normal()))
        specials = float_specials(np.float64) + [3, -2 ** 70]
    for i in rng.integers(0, max(n, 1), min(n, 12)):
        column[i] = specials[int(rng.integers(len(specials)))]
    return column


class TestEmitCsvOracle:
    """The chunked emitter writes the per-value emitter's bytes."""

    KINDS = (np.int64, np.uint64, bool, np.float32, np.float64, object)

    # straddling the bulk path's size rule (at four columns and at one)
    # and its chunk
    N_ROWS = sorted({0, 1, 7, _BULK_MIN_VALUES // 4 - 1, _BULK_MIN_VALUES // 4,
                     _BULK_MIN_VALUES - 1, _BULK_MIN_VALUES,
                     EMIT_CHUNK_ROWS - 1, EMIT_CHUNK_ROWS, EMIT_CHUNK_ROWS + 1,
                     2 * EMIT_CHUNK_ROWS + 3})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
           n_rows=st.sampled_from(N_ROWS), seed=st.integers(0, 2 ** 32 - 1))
    def test_bytes_equal_per_value_reference(self, kinds, n_rows, seed):
        rng = np.random.default_rng(seed)
        columns = {f"c{j}": random_column(kind, n_rows, rng)
                   for j, kind in enumerate(kinds)}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            emit_csv(columns, path)
            with open(path, "rb") as handle:
                assert handle.read() == reference_csv(columns)

    def test_no_columns(self, tmp_path):
        emit_csv({}, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_bytes() == reference_csv({}) == b"\n"


class TestRun:
    def test_eprb_scan_endpoints(self, tmp_path):
        raw = {
            "experiment": "eprb-scan", "seed": 7,
            "parameters": {"steps": 8, "trials": 4000},
        }
        manifest = run(raw, output_dir=str(tmp_path))
        assert manifest.status == "ok"
        rows = (tmp_path / "scan.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header == ["theta", "E12_model", "E12_sim", "n_sigma"]
        first = dict(zip(header, rows[1].split(",")))
        assert float(first["E12_model"]) == -1.0
        assert float(first["E12_sim"]) == -1.0

    def test_scans_build_no_outcome_table(self, tmp_path, monkeypatch):
        # a scan hands each angle's probability row straight to the tally
        def refuse(table):
            raise AssertionError("a scan built an OutcomeTable")

        monkeypatch.setattr(robustq.OutcomeTable, "__post_init__", refuse)
        for experiment in ("eprb-scan", "sg-scan"):
            raw = {"experiment": experiment, "seed": 7,
                   "parameters": {"steps": 8, "trials": 100}}
            manifest = run(raw, output_dir=str(tmp_path / experiment))
            assert manifest.status == "ok", manifest.error

    def test_same_config_same_digests(self, tmp_path):
        raw = minimal_simulate_config()
        m1 = run(raw, output_dir=str(tmp_path / "a"))
        m2 = run(raw, output_dir=str(tmp_path / "b"))
        assert m1.config_digest == m2.config_digest
        d1 = {f["name"]: f["sha256"] for f in m1.output_files}
        d2 = {f["name"]: f["sha256"] for f in m2.output_files}
        assert d1 == d2
        for name in d1:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_tise_solve_ground_energy(self, tmp_path):
        raw = {"experiment": "tise-solve", "parameters": {"n_states": 2}}
        manifest = run(raw, output_dir=str(tmp_path))
        assert manifest.status == "ok"
        rows = (tmp_path / "eigenvalues.csv").read_text().strip().split("\n")
        energy = float(rows[1].split(",")[1])
        assert energy == pytest.approx(0.5, abs=1e-4)

    def test_count_maximizer_counts_input(self, tmp_path):
        raw = {"experiment": "count-maximizer",
               "parameters": {"n_outcomes": 2, "n_total": 4,
                              "counts": [3, 1]}}
        manifest = run(raw, output_dir=str(tmp_path))
        assert manifest.status == "ok"
        rows = (tmp_path / "assignments.csv").read_text().strip().split("\n")
        first = rows[1].split(",")
        assert float(first[3]) == 0.6  # 3 / (4 + 1)

    def test_count_maximizer_many_outcomes(self, tmp_path):
        # one count over 1,000 equal outcomes: each outcome may hold it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "count-maximizer",
            "parameters": {"n_outcomes": 1000, "n_total": 1,
                           "probs": [1 / 1000] * 1000}}))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().split("\n")
        summary = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert summary["n_maximizers"] == "1000"

    def test_count_maximizer_composition_count_past_str_limit(self, tmp_path):
        # one maximiser; C(32999, 2999) has more digits than str(int) allows
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "count-maximizer",
            "parameters": {"n_outcomes": 3000, "n_total": 30000,
                           "probs": [1 / 3000] * 3000}}))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().split("\n")
        summary = dict(zip(rows[0].split(","), rows[1].split(",")))
        field = summary["n_compositions"]
        assert field.isdigit()
        assert len(field) > sys.int_info.default_max_str_digits
        assert int(decimal.Decimal(field)) == math.comb(32999, 2999)

    def test_manifest_written_and_complete(self, tmp_path):
        raw = minimal_simulate_config()
        run(raw, output_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["tool_version"]
        names = {f["name"] for f in manifest["output_files"]}
        assert names == {"counts.csv", "stats.csv"}
        for entry in manifest["output_files"]:
            assert len(entry["sha256"]) == 64

    def test_manifest_key_order(self, tmp_path):
        run(minimal_simulate_config(), output_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest) == ["config_digest", "tool_version", "started",
                                  "finished", "status", "error",
                                  "output_files"]


class TestMainExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_simulate_config()))
        assert main(["validate", "--config", str(path)]) == 0

    def test_validate_bad_config_is_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = minimal_simulate_config()
        raw["parameters"]["thetta"] = 1.0
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 2

    def test_run_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_simulate_config()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_run_numerical_failure_is_3(self, tmp_path):
        # 20 of 40 equal outcomes hold one count: C(40, 20) = 1.4e11
        # candidate maximisers exceed the cap and raise ResourceError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "count-maximizer",
            "parameters": {"n_outcomes": 40, "n_total": 20,
                           "probs": [1 / 40] * 40}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ResourceError"

    def test_run_unexpected_failure_is_3(self, tmp_path, monkeypatch):
        # an exception that is not the library's reaches the last resort
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(robustq.dynamic, "propagate", exhausted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "tdse-run",
                                    "parameters": {"t_final": 0.01}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "MemoryError"
        assert manifest["output_files"] == []

    @pytest.mark.parametrize("below", [False, True],
                             ids=["is-a-file", "under-a-file"])
    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_unusable_output_dir_is_3(self, spelling, below, tmp_path,
                                      capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("kept")
        target = str(blocker / "out" if below else blocker)
        raw = minimal_simulate_config()
        argv = ["run", "--config", str(tmp_path / "cfg.json")]
        if spelling == "flag":
            argv += ["--output-dir", target]
        else:
            raw["output_dir"] = target
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "kept"

    def test_unreadable_config_is_2(self, tmp_path):
        assert main(["validate", "--config",
                     str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("payload", [b"\xff\xfe{}",
                                         b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_config_is_2(self, payload, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(payload)
        assert main(["validate", "--config", str(path)]) == 2


class TestAllExperimentsSmoke:
    """Every experiment kind executes end to end on small inputs."""

    CONFIGS = {
        "eprb-scan": {"seed": 1, "parameters": {"steps": 4, "trials": 500}},
        "eprb-simulate": {"seed": 1,
                          "parameters": {"theta": 0.7, "trials": 500}},
        "sg-scan": {"seed": 1, "parameters": {"steps": 4, "trials": 500}},
        "evidence": {"parameters": {"theta": 1.0, "trials": 1000,
                                    "epsilons": [1e-2, 5e-3]}},
        "count-maximizer": {"parameters": {"n_outcomes": 2, "n_total": 3,
                                           "probs": [0.5, 0.5]}},
        "tise-solve": {"parameters": {"n_points": 301, "n_states": 2}},
        "tise-minimize": {"parameters": {"n_points": 61, "x_min": -3.0,
                                         "x_max": 3.0, "max_iter": 500}},
        "tdse-run": {"parameters": {"t_final": 0.02, "n_points": 401,
                                    "x_min": -10.0, "x_max": 10.0,
                                    "sample_stride": 5}},
        "gauge-check": {"parameters": {"t_final": 0.02, "n_points": 401,
                                       "x_min": -10.0, "x_max": 10.0}},
    }

    @pytest.mark.parametrize("experiment", sorted(CONFIGS))
    def test_experiment_runs(self, experiment, tmp_path):
        raw = {"experiment": experiment, **self.CONFIGS[experiment]}
        manifest = run(raw, output_dir=str(tmp_path))
        assert manifest.status == "ok"
        assert manifest.output_files
        for entry in manifest.output_files:
            assert (tmp_path / entry["name"]).exists()


class TestArraysBuiltOnce:
    """Validation builds the grid arrays the run starts from, and the
    handlers build none of them again."""

    @pytest.mark.parametrize("experiment,expected", [
        ("tise-solve", {"build_potential": 1}),
        ("tise-minimize", {"build_potential": 1}),
        ("tdse-run", {"build_initial": 1}),
        # validation's at t = 0 and t_final, and route A's of the evolved
        ("gauge-check", {"build_initial": 1, "gauge_transform": 3}),
    ])
    def test_each_array_built_once(self, experiment, expected, tmp_path,
                                   monkeypatch):
        calls = {}
        for module, name in ((robustq.cli, "build_initial"),
                             (robustq.cli, "build_potential"),
                             (robustq.dynamic, "gauge_transform")):
            def counted(*args, _original=getattr(module, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        manifest = run({"experiment": experiment,
                        **TestAllExperimentsSmoke.CONFIGS[experiment]},
                       output_dir=str(tmp_path))
        assert manifest.status == "ok"
        assert calls == expected


# a key path as the diagnostics print it, e.g. parameters.epsilons[0]
KEY_PATH = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*|\[\d+\])*"


def key_path(parts):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in parts).lstrip(".")


def mutation_sites(node, parts=()):
    """Every leaf of a config, plus one unknown key per object."""
    if isinstance(node, dict):
        yield parts + ("unknown_key",)
        for key, value in node.items():
            yield from mutation_sites(value, parts + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from mutation_sites(value, parts + (index,))
    else:
        yield parts


class TestExitCodeContract:
    """One mutated leaf (or one added unknown key) of a working config exits
    0, 2 or 3; exit 2 names the mutated key path and creates no output."""

    SITES = [(experiment, parts)
             for experiment, config in sorted(
                 TestAllExperimentsSmoke.CONFIGS.items())
             for parts in mutation_sites({"experiment": experiment,
                                          **config})]
    POOL = ["x", None, True, -1, 0, 1.5, math.nan, [], {}]

    @settings(derandomize=True, database=None, deadline=None)
    @given(site=st.sampled_from(SITES), value=st.sampled_from(POOL))
    def test_one_mutation_exits_0_2_or_3(self, site, value):
        experiment, parts = site
        raw = json.loads(json.dumps({
            "experiment": experiment,
            **TestAllExperimentsSmoke.CONFIGS[experiment]}))
        node = raw
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
            with open(path, "w") as handle:
                json.dump(raw, handle)
            codes, errs = [], []
            for command in (["validate"], ["run", "--output-dir", out]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    codes.append(main([command[0], "--config", path]
                                      + command[1:]))
                errs.append(err.getvalue())
            assert codes[1] in (0, 2, 3)
            assert (codes[0] == 2) == (codes[1] == 2)
            if codes[1] == 2:
                assert not os.path.exists(out)
                for err in errs:
                    assert key_path(parts) in err
                    for line in err.splitlines():
                        assert re.match(f"config error: {KEY_PATH}: ", line)


class TestNestedKindValidation:
    def test_unknown_model_kind_rejected_at_validation(self):
        raw = minimal_simulate_config()
        raw["parameters"]["model"] = {"kind": "tripplet"}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("model.kind" in d for d in err.value.diagnostics)

    def test_unknown_potential_kind_is_exit_2_not_3(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "tise-solve",
            "parameters": {"potential": {"kind": "quartic"}}}))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2


class TestThreadCap:
    """Each worker takes a contiguous slice of the scan angles; 70,000
    trials per point make points straddle keystream block boundaries, and
    steps 0 and 2 give fewer points than workers.  1,000 trials at 300
    steps put about 65 points in one keystream block, and 3,000 trials at
    64 steps tally 65 points in groups of 10, so the tally's groups of
    whole tables straddle block boundaries.  The worker count never
    exceeds the CPU count, so these tests fake four CPUs."""

    def test_scan_output_independent_of_worker_count(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for experiment in ("eprb-scan", "sg-scan"):
            for steps, trials in ((0, 70000), (2, 70000), (8, 70000),
                                  (300, 1000), (64, 3000)):
                raw = {"experiment": experiment, "seed": 3,
                       "parameters": {"steps": steps, "trials": trials}}
                outputs = set()
                for threads in ("1", "2", "3", "4"):
                    monkeypatch.setenv("ROBUSTQ_THREADS", threads)
                    out = tmp_path / f"{experiment}-{steps}-{threads}"
                    run(raw, output_dir=str(out))
                    outputs.add((out / "scan.csv").read_bytes())
                assert len(outputs) == 1, (experiment, steps)

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        # a serial stand-in for the pool records the worker count and
        # starts no thread
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            SerialPool)
        monkeypatch.setenv("ROBUSTQ_THREADS", "100000")
        assert robustq.cli._worker_cap() == 2
        run({"experiment": "eprb-scan", "seed": 3,
             "parameters": {"steps": 9, "trials": 10}},
            output_dir=str(tmp_path / "out"))
        assert workers == [2]
        monkeypatch.setenv("ROBUSTQ_THREADS", "1")
        assert robustq.cli._worker_cap() == 1


class TestInitialState:
    def test_packet_at_the_walls_keeps_its_norm(self, tmp_path):
        # at +-3 the Gaussian is far from zero on the Dirichlet walls; the
        # first step zeroes them, so it must not start with mass there
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "tdse-run",
            "parameters": {"x_min": -3.0, "x_max": 3.0, "t_final": 0.01}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 0
        norms = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1,
                           usecols=1)
        assert norms.size >= 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestMinimizeRun:
    def test_steep_harmonic_well_converges(self, tmp_path):
        # omega = 2 squeezes the ground state into a few dozen nodes; a
        # descent in P itself ran out of 200,000 iterations here
        run({"experiment": "tise-minimize",
             "parameters": {"potential": {"kind": "harmonic", "omega": 2},
                            "max_iter": 2000}}, output_dir=str(tmp_path))
        summary = np.genfromtxt(tmp_path / "summary.csv", delimiter=",",
                                names=True)
        assert summary["converged"] == 1
        assert summary["sup_diff_vs_eigen"] <= 1e-6
        assert abs(summary["objective"]) <= 1e-10
        x, density = np.loadtxt(tmp_path / "fields.csv", delimiter=",",
                                skiprows=1, usecols=(0, 1), unpack=True)
        assert density[0] == 0.0 and density[-1] == 0.0  # Dirichlet walls
        h = (x[-1] - x[0]) / (x.size - 1)
        assert abs(h * density.sum() - 1.0) <= 1e-13

    @staticmethod
    def summary(tmp_path, **params):
        run({"experiment": "tise-minimize", "parameters": params},
            output_dir=str(tmp_path))
        return np.genfromtxt(tmp_path / "summary.csv", delimiter=",",
                             names=True)

    # preconditioned with the eigensolver's own matrix, the iteration count
    # does not grow with the grid: 9, 8, 8 and 9 here, where the descent
    # without it took 163 and 534 on the first two and did not converge in
    # 3,000 on the 5,001 nodes.  The optimum at the eigen energy is 0 up to
    # 2 m lambda = 8 times that energy's rounding, eps * |H|, about 3e-10
    # at 5,001 nodes, where |H| is about 1e6
    @pytest.mark.parametrize("params,objective", [
        ({}, 1e-10), ({"n_points": 401}, 1e-10), ({"n_points": 5001}, 5e-9),
        ({"x_min": -100.0, "x_max": 100.0, "n_points": 4001}, 1e-10),
    ], ids=["defaults", "401-nodes", "5001-nodes", "pm100-4001-nodes"])
    def test_one_grid_converges_in_few_iterations(self, params, objective,
                                                  tmp_path):
        summary = self.summary(tmp_path, **params)
        assert summary["iterations"] <= 30
        assert summary["converged"] == 1
        assert summary["sup_diff_vs_eigen"] <= 1e-8
        assert abs(summary["objective"]) <= objective

    @pytest.mark.parametrize("bound", [
        {"x_min": -1e20}, {"x_max": 1e20}, {"x_min": -1e10},
    ], ids=["x_min-1e20", "x_max-1e20", "x_min-1e10"])
    def test_badly_scaled_domain_reaches_the_optimum(self, bound, tmp_path):
        # at +-1e20 each node holds about 1e-20 of density and the objective
        # starts near 1e40.  The unpreconditioned descent stopped there as
        # converged at 1.3e40; M^-1 applied without the tangent projection
        # stopped at 3.3e19 on x_min = -1e10
        summary = self.summary(tmp_path, **bound)
        assert summary["converged"] == 1
        assert abs(summary["objective"]) <= 1e-10
        eigen = np.loadtxt(tmp_path / "fields.csv", delimiter=",",
                           skiprows=1, usecols=2)
        assert summary["sup_diff_vs_eigen"] <= 1e-6 * eigen.max()

    @pytest.mark.parametrize("potential", [
        {"kind": "box"}, {"kind": "zero"}, {"kind": "linear", "slope": 1.0},
    ], ids=["box", "zero", "linear-slope-1"])
    def test_agrees_with_eigen_where_the_state_meets_the_walls(
            self, potential, tmp_path):
        # these ground states keep weight next to a wall, where a minimiser
        # with free wall nodes settles on a different state
        summary = self.summary(tmp_path, potential=potential)
        assert summary["converged"] == 1
        assert summary["sup_diff_vs_eigen"] <= 1e-6
        density = np.loadtxt(tmp_path / "fields.csv", delimiter=",",
                             skiprows=1, usecols=1)
        assert density[0] == 0.0 and density[-1] == 0.0

    @pytest.mark.parametrize("params", [
        {"x_min": -1e154, "n_points": 101}, {"x_max": 1e154, "n_points": 101},
        {"x_min": -1e100},
    ], ids=["x_min", "x_max", "x_min-1e100"])
    def test_non_finite_objective_is_an_error(self, params, tmp_path, capsys):
        # the objective overflows to NaN, which once ended the descent as
        # converged beside objective nan; at -1e100 the search direction
        # overflows, which no halving turns into a decrease
        raw = {"experiment": "tise-minimize", "parameters": params}
        manifest = run(raw, output_dir=str(tmp_path / "run"))
        assert (manifest.status, manifest.error) == ("error",
                                                     "ConvergenceError")
        assert not (tmp_path / "run" / "summary.csv").exists()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "main")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("max_iter", [1, 5, 60])
    def test_max_iter_bounds_the_total(self, max_iter, tmp_path):
        summary = self.summary(tmp_path, max_iter=max_iter)
        assert summary["iterations"] <= max_iter
        if max_iter == 5:
            assert summary["converged"] == 0

    def test_small_grid_is_one_direct_solve(self, tmp_path):
        # the CLI makes one minimize_functional call on the requested grid,
        # from the uniform start at the eigen energy
        self.summary(tmp_path)
        density = np.loadtxt(tmp_path / "fields.csv", delimiter=",",
                             skiprows=1, usecols=1)
        grid = Grid1D.from_interval(-3.25, 3.25, 131)
        potential = build_potential({"kind": "harmonic", "omega": 1.0,
                                     "center": 0.0}, grid)
        energy = stationary.solve_eigen(
            stationary.StationaryProblem(potential, 0.0), grid, 1)[0][0]
        uniform = np.full(131, 1.0 / (131 * grid.spacing))
        result = stationary.minimize_functional(
            stationary.StationaryProblem(potential, energy), grid,
            (ScalarField(grid, uniform, kind="density"),
             ScalarField(grid, np.zeros(131), kind="action")))
        assert np.array_equal(density, result.density.values)


class TestHbarTwo:
    """At hbar = 2 (lambda = 1) the grid routes still meet the criteria
    that default units are held to."""

    def test_tdse_run_meets_the_residual_identity(self, tmp_path):
        # criterion 14: hje_residual = -Fisher / (2 m lambda)
        run({"experiment": "tdse-run", "physics": {"hbar": 2.0},
             "parameters": {"t_final": 1.0, "sample_stride": 100}},
            output_dir=str(tmp_path))
        trace = np.genfromtxt(tmp_path / "trace.csv", delimiter=",",
                              names=True)
        target = -trace["fisher_spatial"] / 2.0
        inner = slice(1, -1)
        rel = np.abs(trace["hje_residual"][inner] - target[inner]) \
            / np.abs(target[inner])
        assert rel.size == 9 and np.max(rel) < 1e-3

    def test_gauge_check_refines_as_criterion_13_asks(self, tmp_path):
        # criterion 13's grids: the wave difference within 1e-4, and both
        # differences quartered when dt and h halve.  The density difference
        # reads 1.37e-8 at dt = 1e-3 (4.8e-9 at hbar = 1), over criterion
        # 13's 1e-8: the scheme's O(dt^2) error, so it holds at dt = 5e-4
        coarse, fine = (
            self.gauge(tmp_path / str(n), {"n_points": n, "dt": dt})
            for n, dt in ((4001, 1e-3), (8001, 5e-4)))
        assert coarse["wave_sup_diff_aligned"] <= 1e-4
        assert fine["density_sup_diff"] <= 1e-8
        for key in ("density_sup_diff", "wave_sup_diff_aligned"):
            assert 3.5 <= coarse[key] / fine[key] <= 4.5

    @staticmethod
    def gauge(out, params):
        run({"experiment": "gauge-check", "physics": {"hbar": 2.0},
             "parameters": params}, output_dir=str(out))
        return np.genfromtxt(out / "gauge.csv", delimiter=",", names=True)


class TestBlasThreads:
    """CSV bytes must not depend on the BLAS thread count.  Propagation
    calls LAPACK's tridiagonal LU directly; the minimiser's L-BFGS vectors
    (2 × 5,001 elements) and gauge-check's overlap (24,001) are longer than
    the 10,000 elements up to which OpenBLAS dots on one thread."""

    CONFIGS = [
        {"experiment": "tdse-run",
         "parameters": {"n_points": 2001, "t_final": 0.02}},
        {"experiment": "gauge-check"},
        {"experiment": "tise-minimize",
         "parameters": {"n_points": 5001, "max_iter": 300}},
        {"experiment": "gauge-check",
         "parameters": {"n_points": 24001, "t_final": 0.02}},
    ]
    SCRIPT = ("import json, os, sys\n"
              "from robustq.cli import run\n"
              "for i, raw in enumerate(json.loads(sys.argv[1])):\n"
              "    run(raw, output_dir=os.path.join(sys.argv[2], str(i)))\n")

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        src = os.path.dirname(os.path.dirname(robustq.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / threads
            subprocess.run([sys.executable, "-c", self.SCRIPT,
                            json.dumps(self.CONFIGS), str(out)],
                           env=env, check=True, timeout=600)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*.csv"))})
        # trace, final_state, gauge, fields, summary, gauge
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]


class TestRangeChecks:
    """Malformed values exit 2 and name the key.  A row is (experiment,
    the contents of the section its key path starts with, key path); every
    config carries a seed, so only the row's fault is wrong."""

    CASES = [
        ("tise-solve", {"n_points": 2}, "parameters.n_points"),
        ("tise-minimize", {"n_points": 1}, "parameters.n_points"),
        ("tdse-run", {"t_final": 0.01, "n_points": 2}, "parameters.n_points"),
        ("gauge-check", {"n_points": 0}, "parameters.n_points"),
        ("tise-solve", {"x_min": 1.0, "x_max": 1.0}, "parameters.x_max"),
        ("tdse-run", {"t_final": 0.01, "x_min": 5.0, "x_max": -5.0},
         "parameters.x_max"),
        ("tise-minimize", {"max_iter": 0}, "parameters.max_iter"),
        ("tise-minimize", {"tol": -1e-9}, "parameters.tol"),
        ("tise-solve", {"hbar": "abc"}, "physics.hbar"),
        ("tise-solve", {"hbar": 0}, "physics.hbar"),
        ("tise-solve", {"hbar": -1}, "physics.hbar"),
        ("tise-solve", {"mass": "x"}, "physics.mass"),
        ("tise-solve", {"lambda": 3.0}, "physics.lambda"),  # unknown key
        ("eprb-simulate", {"theta": 1.0, "trials": 0}, "parameters.trials"),
        ("sg-scan", {"trials": -5}, "parameters.trials"),
        ("eprb-scan", {"steps": -1, "trials": 100}, "parameters.steps"),
        ("sg-scan", {"branch_sign": 0, "trials": 100},
         "parameters.branch_sign"),
        ("tise-solve", {"potential": {"kind": "harmonic", "omega": "x"}},
         "parameters.potential.omega"),
        ("tise-solve", {"potential": {"kind": "harmonic", "omegaa": 3}},
         "parameters.potential.omegaa"),
        ("tdse-run", {"t_final": 0.01,
                      "initial": {"kind": "gaussian", "sigma": -1}},
         "parameters.initial.sigma"),
        ("tdse-run", {"t_final": 0.01,
                      "initial": {"kind": "gaussian", "sigma": 0}},
         "parameters.initial.sigma"),
        ("tdse-run", {"t_final": 0.0105}, "parameters.t_final"),
        ("tdse-run", {"t_final": -1}, "parameters.t_final"),
        ("tdse-run", {"t_final": 0.01, "dt": 0}, "parameters.dt"),
        ("tdse-run", {"t_final": 0.01, "sample_stride": 0},
         "parameters.sample_stride"),
        ("eprb-simulate", {"theta": 1.0, "trials": 100,
                           "model": {"kind": "general", "K": 0}},
         "parameters.model"),
        ("eprb-simulate", {"theta": 1.0, "trials": 100,
                           "model": {"kind": "general", "phi": 1.0}},
         "parameters.model"),
        ("eprb-simulate", {"theta": 1.0, "trials": 100,
                           "model": {"kind": "singlet", "K": 3}},
         "parameters.model.K"),
        ("gauge-check", {"chi": {"kind": "constant", "valu": 2}},
         "parameters.chi.valu"),
        ("tise-solve", {"n_states": 0}, "parameters.n_states"),
        ("tise-solve", {"n_states": 50, "n_points": 11},
         "parameters.n_states"),
        ("evidence", {"theta": 1.0, "trials": 100, "epsilons": ["a"]},
         "parameters.epsilons"),
        ("evidence", {"theta": 1.0, "trials": 100, "epsilons": []},
         "parameters.epsilons"),
        ("count-maximizer", {"n_outcomes": 2, "n_total": 3,
                             "probs": ["a", 1]}, "parameters.probs"),
        ("count-maximizer", {"n_outcomes": 3, "n_total": 3,
                             "probs": [0.5, 0.5]}, "parameters.probs"),
        ("count-maximizer", {"n_outcomes": 0, "n_total": 3,
                             "probs": [0.5, 0.5]}, "parameters.n_outcomes"),
        ("eprb-simulate", {"theta": math.nan, "trials": 100},
         "parameters.theta"),
        ("count-maximizer", {"n_outcomes": 2, "n_total": 3,
                             "probs": [1.5, 0.5]}, "parameters.probs"),
        ("count-maximizer", {"n_outcomes": 2, "n_total": 2 ** 63 + 1,
                             "counts": [2 ** 63, 1]}, "parameters.counts[0]"),
        # budgets: node-steps, draws, rows
        ("tdse-run", {"t_final": 1e13}, "parameters.t_final"),
        ("gauge-check", {"t_final": 5000}, "parameters.t_final"),
        ("eprb-scan", {"trials": 10 ** 9, "steps": 100}, "parameters.trials"),
        ("eprb-simulate", {"theta": 1.0, "trials": 10 ** 11 + 1},
         "parameters.trials"),
        ("tdse-run", {"t_final": 1e4, "n_points": 3, "sample_stride": 1},
         "parameters.sample_stride"),
        ("sg-scan", {"trials": 1, "steps": 10 ** 6}, "parameters.steps"),
        # spans and potentials that overflow a double
        ("eprb-scan", {"trials": 100, "theta_start": -1e308,
                       "theta_stop": 1e308}, "parameters.theta_stop"),
        ("sg-scan", {"trials": 100, "theta_start": 1e308,
                     "theta_stop": -1e308}, "parameters.theta_stop"),
        ("tise-solve", {"potential": {"kind": "harmonic", "omega": 1e200}},
         "parameters.potential"),
        ("tise-minimize", {"potential": {"kind": "linear", "slope": 1e308}},
         "parameters.potential"),
        ("tise-solve", {"x_min": -1e308, "x_max": 1.0,
                        "potential": {"kind": "linear", "slope": 10}},
         "parameters.potential"),
        ("tise-minimize", {"x_min": -1e308, "x_max": 1e308},
         "parameters.x_max"),
        ("tdse-run", {"t_final": 0.01, "scalar_potential": {
            "kind": "harmonic", "omega": 1e200}},
         "parameters.scalar_potential"),
        ("tdse-run", {"t_final": 0.01, "vector_potential": {
            "kind": "harmonic", "omega": 1e200}},
         "parameters.vector_potential"),
        # hbar^2 underflows to 0 or overflows: lambda = 4 / hbar^2 is undefined
        ("tise-solve", {"hbar": 1e-300}, "physics.hbar"),
        ("tise-solve", {"hbar": 5e-324}, "physics.hbar"),
        ("tise-solve", {"hbar": 1e308}, "physics.hbar"),
        # hbar^2 is a finite subnormal, but lambda = 4 / hbar^2 overflows
        ("tise-solve", {"hbar": 1e-160}, "physics.hbar"),
        # an initial Gaussian that overflows, or is zero at every node, on
        # the grid: sigma ** 2 overflows or underflows, x0 is far off the
        # grid, k0 * x overflows
        *[("tdse-run", {"n_points": 101, "t_final": 0.01, "initial": {
            "kind": "gaussian", **initial}}, "parameters.initial")
          for initial in ({"sigma": 1e308}, {"sigma": 5e-324},
                          {"x0": 1e154}, {"k0": 1e308})],
        ("gauge-check", {"initial": {"kind": "gaussian", "k0": 1e308}},
         "parameters.initial"),
        # a gauge transform that overflows on the grid
        ("gauge-check", {"charge": 1e308}, "physics.charge"),
        ("gauge-check", {"charge": -1e308}, "physics.charge"),
        *[("gauge-check", {"n_points": 101, "t_final": 0.01, "chi": {
            "kind": "x_sin_t", "amplitude": amplitude}}, "parameters.chi")
          for amplitude in (1e308, -1e308)],
    ]

    @pytest.mark.parametrize("experiment,params,key", CASES)
    def test_exit_2_names_key(self, experiment, params, key, tmp_path,
                              capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "seed": 1,
                                    key.split(".")[0]: params}))
        for command in (["validate"], ["run", "--output-dir",
                                       str(tmp_path / "out")]):
            assert main([command[0], "--config", str(path)]
                        + command[1:]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", [
        "tise-solve", "tise-minimize", "tdse-run", "gauge-check"])
    @pytest.mark.parametrize("physics,value", [
        ({"hbar": 1e154}, "got inf at hbar = 1e+154, mass = 1.0"),
        ({"mass": 5e-324}, "got inf at hbar = 1.0, mass = 5e-324"),
    ], ids=["hbar-1e154", "mass-5e-324"])
    def test_overflowing_kinetic_coefficient_refused(self, experiment,
                                                     physics, value,
                                                     tmp_path, capsys):
        # 2c/h^2 with c = hbar^2 / 2m overflows, though hbar and m are finite
        path = tmp_path / "cfg.json"
        params = {"t_final": 0.01} if experiment == "tdse-run" else {}
        path.write_text(json.dumps({"experiment": experiment,
                                    "physics": physics,
                                    "parameters": params}))
        for command in (["validate"], ["run", "--output-dir",
                                       str(tmp_path / "out")]):
            assert main([command[0], "--config", str(path)]
                        + command[1:]) == 2
            err = capsys.readouterr().err
            assert "physics: the kinetic coefficient" in err
            assert value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,params", [
        ("tise-solve", {}), ("tise-minimize", {}),
        ("tdse-run", {"t_final": 0}), ("gauge-check", {"t_final": 0})])
    def test_grid_rows_refused_at_validation(self, experiment, params,
                                             tmp_path, capsys):
        # one CSV row per node: a billion nodes is gigabytes of output.
        # Validation only, so a missed refusal cannot start the run.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": experiment,
            "parameters": {"n_points": 10 ** 9, **params}}))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parameters.n_points" in err and "budget" in err

    def test_boundary_values_accepted(self, tmp_path):
        raw = {"experiment": "tise-minimize",
               "parameters": {"n_points": 3, "max_iter": 1, "tol": 0.0}}
        config = validate_config(raw)
        assert config.parameters["n_points"] == 3
        # one interior node: the preconditioner still factors
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("potential", [
        {"kind": "harmonic", "omega": 1e150},
        {"kind": "linear", "slope": 1e306},
    ])
    def test_large_finite_potential_accepted(self, potential):
        config = validate_config({"experiment": "tise-solve",
                                  "parameters": {"potential": potential}})
        grid = Grid1D.from_interval(-10.0, 10.0, 1001)
        values = build_potential(config.parameters["potential"], grid).values
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("experiment,params", [
        ("tdse-run", {"dt": 1.0, "t_final": 10 ** 6 - 1, "n_points": 3,
                      "sample_stride": 1}),  # 10^6 trace rows
        ("gauge-check", {"dt": 1.0, "t_final": 10 ** 6, "n_points": 10 ** 4}),
        ("eprb-scan", {"trials": 10 ** 11, "steps": 0}),
        ("sg-scan", {"trials": 10 ** 5, "steps": 10 ** 6 - 1}),
        ("count-maximizer", {"n_outcomes": 2, "n_total": 2 ** 63,
                             "counts": [2 ** 63 - 1, 1]}),
        ("tise-solve", {"n_points": 10 ** 6}),
    ], ids=["rows", "node-steps", "draws", "scan-rows", "counts",
            "grid-rows"])
    def test_budgets_and_counts_accepted_at_the_bound(self, experiment,
                                                      params):
        validate_config({"experiment": experiment, "seed": 1,
                         "parameters": params})


def numeric_leaves(fields, parts=()):
    """(key path, Field) of every number a config can set under ``fields``:
    a kind table's members under each of its kinds, whose step in the path
    is a (key, kind) pair, and the first entry of each list."""
    for key, field in fields.items():
        if field.kinds:
            for kind, members in field.kinds.items():
                yield from numeric_leaves(members, parts + ((key, kind),))
        elif field.fields:
            yield from numeric_leaves(field.fields, parts + (key,))
        elif field.type is list:
            yield parts + (key, 0), field.items
        elif field.type in (int, float):
            yield parts + (key,), field


def with_leaf(base, parts, value):
    """A copy of the config ``base`` with the leaf at ``parts`` set to
    ``value``; a (key, kind) step resets that object to the bare kind, so
    its other members take their defaults."""
    raw = json.loads(json.dumps(base))
    node = raw
    for part in parts[:-1]:
        if isinstance(part, tuple):
            node[part[0]] = {"kind": part[1]}
            part = part[0]
        elif isinstance(node, dict):
            node.setdefault(part, {})
        node = node[part]
    node[parts[-1]] = value
    return raw


def path_name(parts):
    return key_path([f"{p[0]}[{p[1]}]" if isinstance(p, tuple) else p
                     for p in parts])


class TestContractOracle:
    """The exit-status contract on cases generated from the config schema:
    one numeric leaf at a time, of every experiment's physics, parameters
    and kind members, set to an extreme value on a small run.  Each case
    exits 2, or ends ok or with a RobustqError, and writes nothing to
    stderr and raises no warning; an ok run's CSVs are finite outside the
    documented cells.  Leaves that set a run's size are only validated:
    2**63 - 1 trials is a valid config that runs for hours."""

    BASES = {  # the first base holding a leaf's list serves that leaf
        "eprb-scan": [{"seed": 1, "parameters": {"trials": 1000}}],
        "eprb-simulate": [{"seed": 1,
                           "parameters": {"theta": 1.0, "trials": 1000}}],
        "sg-scan": [{"seed": 1, "parameters": {"trials": 1000}}],
        "evidence": [{"parameters": {"theta": 1.0, "trials": 1000,
                                     "epsilons": [0.01]}}],
        "count-maximizer": [
            {"parameters": {"n_outcomes": 2, "n_total": 3,
                            "probs": [0.5, 0.5]}},
            {"parameters": {"n_outcomes": 2, "n_total": 3,
                            "counts": [1, 2]}}],
        "tise-solve": [{"parameters": {"n_points": 101}}],
        "tise-minimize": [{"parameters": {"n_points": 101, "max_iter": 50}}],
        "tdse-run": [{"parameters": {"n_points": 101, "t_final": 0.01}}],
        "gauge-check": [{"parameters": {"n_points": 101, "t_final": 0.01}}],
    }
    FLOATS = (1e308, -1e308, 1e154, -1e154, 5e-324, 1e-300, 1e-160, 0.0, -1.0)
    INTS = (0, -1, 2 ** 31, 2 ** 63 - 1)
    SIZE_KEYS = {"trials", "steps", "n_points", "t_final", "dt",
                 "sample_stride", "max_iter", "n_total"}
    ERRORS = {cls.__name__
              for cls in [RobustqError, *RobustqError.__subclasses__()]}
    # a scan's n_sigma is inf where sigma = 0 and the counts differ from
    # the model; sigma is zero where the model column's variance is
    VARIANCE = {"E12_model": ("E12_sim", lambda m: 1.0 - m * m),
                "p_plus_model": ("p_plus_sim", lambda p: p * (1.0 - p))}

    @classmethod
    def cases(cls, experiment):
        leaves = [*numeric_leaves(_TOP),
                  *numeric_leaves(_SCHEMAS[experiment].parameters,
                                  ("parameters",))]
        for parts, field in leaves:
            base = next(base for base in cls.BASES[experiment]
                        if not isinstance(parts[-1], int)
                        or parts[-2] in base["parameters"])
            for value in cls.FLOATS if field.type is float else cls.INTS:
                raw = with_leaf({"experiment": experiment, **base}, parts,
                                value)
                yield f"{experiment} {path_name(parts)}={value!r}", raw, \
                    parts[-1] in cls.SIZE_KEYS

    def test_cases_cover_every_leaf(self):
        names = [name for experiment in EXPERIMENTS
                 for name, _, _ in self.cases(experiment)]
        assert len(names) == len(set(names))
        assert "evidence parameters.epsilons[0]=1e+154" in names
        assert ("count-maximizer parameters.counts[0]=9223372036854775807"
                in names)
        assert "gauge-check parameters.chi[constant].value=5e-324" in names
        assert "tdse-run physics.light_speed=-1.0" in names

    def outcome(self, raw, validate_only, out_dir):
        """What the case did, or why it broke the contract."""
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                manifest = (validate_config(raw) if validate_only
                            else run(raw, output_dir=out_dir))
            except ConfigError:
                manifest = None
        noise = [str(w.message) for w in caught] + [err.getvalue()]
        if any(noise):
            return f"stderr or warnings: {noise}"
        if manifest is None or validate_only:
            return "exit 2" if manifest is None else "valid"
        if manifest.status != "ok":
            return ("exit 3" if manifest.error in self.ERRORS
                    else f"not a RobustqError: {manifest.error}")
        for entry in manifest.output_files:
            bad = self.non_finite(os.path.join(out_dir, entry["name"]))
            if bad:
                return f"{entry['name']} not finite at {bad}"
        return "ok"

    def non_finite(self, path):
        """(row, column) of each non-finite cell outside the documented
        ones: hje_residual in the first and last trace rows, and n_sigma
        where sigma = 0 and the counts differ from the model."""
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        bad = []
        for i, row in enumerate(rows):
            for column, cell in row.items():
                if cell not in ("nan", "inf", "-inf"):
                    continue
                if column == "hje_residual" and i in (0, len(rows) - 1):
                    continue
                if column == "n_sigma" and cell == "inf":
                    model, (sim, variance) = next(
                        (name, rule) for name, rule in self.VARIANCE.items()
                        if name in row)
                    if variance(float(row[model])) <= 0 \
                            and row[sim] != row[model]:
                        continue
                bad.append((i, column))
        return bad

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_each_leaf_keeps_the_contract(self, experiment, tmp_path):
        broken = []
        for n, (name, raw, validate_only) in enumerate(
                self.cases(experiment)):
            result = self.outcome(raw, validate_only, str(tmp_path / str(n)))
            if result not in ("valid", "exit 2", "exit 3", "ok"):
                broken.append(f"{name}: {result}")
        assert not broken
