"""CLI verification: config validation, CSV contract, dispatch, manifest
reproducibility, and exit codes."""

import json
import math

import numpy as np
import pytest

from robustq.cli import (EXPERIMENTS, emit_csv, main, run, validate_config)
from robustq.errors import ConfigError


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
        raw = minimal_simulate_config(physics={"hbar": 1.0, "lambda": 3.0})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("4 / hbar^2" in d for d in err.value.diagnostics)

    def test_lambda_override_with_flag(self):
        raw = minimal_simulate_config(
            physics={"hbar": 1.0, "lambda": 3.0, "default_units": False})
        assert validate_config(raw).physics.lam == 3.0

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
        # a composition count beyond the enumeration cap raises ResourceError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "count-maximizer",
            "parameters": {"n_outcomes": 9, "n_total": 200,
                           "probs": [1 / 9] * 9}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ResourceError"

    def test_unreadable_config_is_2(self, tmp_path):
        assert main(["validate", "--config",
                     str(tmp_path / "missing.json")]) == 2


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
    def test_scan_output_independent_of_worker_count(self, tmp_path,
                                                     monkeypatch):
        raw = {"experiment": "eprb-scan", "seed": 3,
               "parameters": {"steps": 8, "trials": 20000}}
        monkeypatch.setenv("ROBUSTQ_THREADS", "1")
        run(raw, output_dir=str(tmp_path / "serial"))
        monkeypatch.setenv("ROBUSTQ_THREADS", "4")
        run(raw, output_dir=str(tmp_path / "parallel"))
        assert (tmp_path / "serial" / "scan.csv").read_bytes() == \
            (tmp_path / "parallel" / "scan.csv").read_bytes()


class TestRangeChecks:
    """Out-of-range grid and minimiser parameters exit 2 and name the key."""

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
    ]

    @pytest.mark.parametrize("experiment,params,key", CASES)
    def test_exit_2_names_key(self, experiment, params, key, tmp_path,
                              capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment,
                                    "parameters": params}))
        for command in (["validate"], ["run", "--output-dir",
                                       str(tmp_path / "out")]):
            assert main([command[0], "--config", str(path)]
                        + command[1:]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boundary_values_accepted(self):
        config = validate_config({
            "experiment": "tise-minimize",
            "parameters": {"n_points": 3, "max_iter": 1, "tol": 0.0}})
        assert config.parameters["n_points"] == 3
