"""Command-line front end: JSON configs in, CSV files and a run manifest out.

Usage:
    robustq run --config cfg.json [--output-dir DIR]
    robustq validate --config cfg.json

Exit status: 0 success, 2 config validation failure, 3 numerical failure
(the module error name lands in the manifest).  Stochastic experiments
require an explicit seed; identical (config, version) pairs produce
byte-identical CSV output.  The environment variable ROBUSTQ_THREADS caps
the worker count for parameter scans.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Dict, Optional

import numpy as np

from . import __version__
from . import dynamic, eprb, inference, rng, stationary, sterngerlach
from .errors import ConfigError, RobustqError
from .grid import Grid1D, ScalarField, normalized_wave

THREADS_ENV = "ROBUSTQ_THREADS"

EXPERIMENTS = (
    "eprb-scan", "eprb-simulate", "sg-scan", "evidence", "count-maximizer",
    "tise-solve", "tise-minimize", "tdse-run", "gauge-check",
)
STOCHASTIC = {"eprb-scan", "eprb-simulate", "sg-scan"}


@dataclass(frozen=True, eq=False)
class Physics:
    hbar: float = 1.0
    mass: float = 1.0
    lam: float = 4.0
    charge: float = 1.0
    light_speed: float = 1.0
    default_units: bool = True


@dataclass(frozen=True, eq=False)
class RunConfig:
    experiment: str
    parameters: dict
    physics: Physics
    seed: Optional[int]
    output_dir: str


@dataclass(frozen=True, eq=False)
class RunManifest:
    config_digest: str
    tool_version: str
    started: str
    finished: str
    status: str
    error: Optional[str]
    output_files: list

    def to_json(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "status": self.status,
            "error": self.error,
            "output_files": self.output_files,
        }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

_PHYSICS_KEYS = {"hbar", "mass", "lambda", "charge", "light_speed",
                 "default_units"}
_TOP_KEYS = {"experiment", "parameters", "physics", "seed", "output_dir"}

# parameter schema per experiment: name -> (required, type, default)
_NUM = (int, float)

# admissible "kind" discriminators of the structured parameters
_KIND_SETS = {
    "model": {"singlet", "triplet_z0", "general"},
    "potential": {"harmonic", "zero", "box", "linear"},
    "initial": {"gaussian"},
    "vector_potential": {"zero", "uniform_sin", "harmonic"},
    "scalar_potential": {"zero", "uniform_sin", "harmonic"},
    "chi": {"x_sin_t", "constant"},
}
_SCHEMAS: Dict[str, dict] = {
    "eprb-scan": {
        "model": (False, dict, {"kind": "singlet"}),
        "theta_start": (False, _NUM, 0.0),
        "theta_stop": (False, _NUM, math.pi),
        "steps": (False, int, 64),
        "trials": (True, int, None),
    },
    "eprb-simulate": {
        "model": (False, dict, {"kind": "singlet"}),
        "theta": (True, _NUM, None),
        "trials": (True, int, None),
    },
    "sg-scan": {
        "branch_sign": (False, int, 1),
        "theta_start": (False, _NUM, 0.0),
        "theta_stop": (False, _NUM, math.pi),
        "steps": (False, int, 64),
        "trials": (True, int, None),
    },
    "evidence": {
        "model": (False, dict, {"kind": "singlet"}),
        "theta": (True, _NUM, None),
        "trials": (True, int, None),
        "epsilons": (True, list, None),
    },
    "count-maximizer": {
        "n_outcomes": (True, int, None),
        "n_total": (True, int, None),
        "probs": (False, list, None),
        "counts": (False, list, None),
    },
    "tise-solve": {
        "potential": (False, dict, {"kind": "harmonic", "omega": 1.0}),
        "x_min": (False, _NUM, -10.0),
        "x_max": (False, _NUM, 10.0),
        "n_points": (False, int, 1001),
        "n_states": (False, int, 4),
    },
    "tise-minimize": {
        "potential": (False, dict, {"kind": "harmonic", "omega": 1.0}),
        "x_min": (False, _NUM, -3.25),
        "x_max": (False, _NUM, 3.25),
        "n_points": (False, int, 131),
        "max_iter": (False, int, 200000),
        "tol": (False, _NUM, 1e-15),
    },
    "tdse-run": {
        "initial": (False, dict, {"kind": "gaussian", "sigma": 1.0,
                                  "x0": 0.0, "k0": 0.0}),
        "vector_potential": (False, dict, {"kind": "zero"}),
        "scalar_potential": (False, dict, {"kind": "zero"}),
        "x_min": (False, _NUM, -20.0),
        "x_max": (False, _NUM, 20.0),
        "n_points": (False, int, 2001),
        "dt": (False, _NUM, 1e-3),
        "t_final": (True, _NUM, None),
        "sample_stride": (False, int, 10),
    },
    "gauge-check": {
        "initial": (False, dict, {"kind": "gaussian", "sigma": 1.0,
                                  "x0": 0.0, "k0": 0.0}),
        "chi": (False, dict, {"kind": "x_sin_t", "amplitude": 1.0}),
        "x_min": (False, _NUM, -20.0),
        "x_max": (False, _NUM, 20.0),
        "n_points": (False, int, 4001),
        "dt": (False, _NUM, 1e-3),
        "t_final": (False, _NUM, 0.25),
    },
}
# inclusive lower bounds of parameters, in whichever experiment has them
_LOWER_BOUNDS = {"n_points": 3, "max_iter": 1, "tol": 0}


def validate_config(raw) -> RunConfig:
    """Typed RunConfig from a parsed JSON object; raises ConfigError with
    one diagnostic per offending key path."""
    diags = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    for key in raw:
        if key not in _TOP_KEYS:
            diags.append(f"unknown key {key!r}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        diags.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}; "
                     f"got {experiment!r}")
        raise ConfigError(diags)

    phys_raw = raw.get("physics", {})
    physics = Physics()
    if not isinstance(phys_raw, dict):
        diags.append("physics: must be an object")
    else:
        for key in phys_raw:
            if key not in _PHYSICS_KEYS:
                diags.append(f"physics.{key}: unknown key")
        hbar = float(phys_raw.get("hbar", 1.0))
        default_units = bool(phys_raw.get("default_units", True))
        lam = phys_raw.get("lambda")
        if lam is None:
            lam = 4.0 / hbar ** 2
        elif default_units and abs(lam - 4.0 / hbar ** 2) > 1e-9:
            diags.append(
                f"physics.lambda: {lam!r} inconsistent with hbar={hbar!r}; "
                "default units require lambda = 4 / hbar^2 "
                "(set default_units false to override)")
        physics = Physics(hbar=hbar, mass=float(phys_raw.get("mass", 1.0)),
                          lam=float(lam),
                          charge=float(phys_raw.get("charge", 1.0)),
                          light_speed=float(phys_raw.get("light_speed", 1.0)),
                          default_units=default_units)

    seed = raw.get("seed")
    if experiment in STOCHASTIC:
        if seed is None:
            diags.append("seed: required for stochastic experiments "
                         "(no wall-clock default)")
        elif not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            diags.append("seed: must be a 64-bit nonnegative integer")
    elif seed is not None and (not isinstance(seed, int)
                               or not 0 <= seed < 2 ** 64):
        diags.append("seed: must be a 64-bit nonnegative integer")

    schema = _SCHEMAS[experiment]
    params_raw = raw.get("parameters", {})
    params = {}
    if not isinstance(params_raw, dict):
        diags.append("parameters: must be an object")
        params_raw = {}
    for key in params_raw:
        if key not in schema:
            diags.append(f"parameters.{key}: unknown key")
    for key, (required, kind, default) in schema.items():
        if key in params_raw:
            value = params_raw[key]
            if kind is int and isinstance(value, bool):
                diags.append(f"parameters.{key}: expected integer")
            elif kind is int and isinstance(value, float) and value.is_integer():
                value = int(value)
            if not isinstance(value, kind):
                diags.append(f"parameters.{key}: expected "
                             f"{getattr(kind, '__name__', 'number')}")
            else:
                params[key] = value
        elif required:
            diags.append(f"parameters.{key}: required for {experiment}")
        elif default is not None:
            params[key] = default
    if experiment == "count-maximizer":
        if ("probs" in params) == ("counts" in params):
            diags.append("parameters: exactly one of probs/counts is required")
    for key, kinds in _KIND_SETS.items():
        if key in params and isinstance(params[key], dict):
            kind = params[key].get("kind")
            if kind not in kinds:
                diags.append(f"parameters.{key}.kind: must be one of "
                             f"{', '.join(sorted(kinds))}; got {kind!r}")
    for key, least in _LOWER_BOUNDS.items():
        # "not >=" also rejects NaN
        if key in params and not params[key] >= least:
            diags.append(f"parameters.{key}: must be at least {least}; "
                         f"got {params[key]!r}")
    if ("x_min" in params and "x_max" in params
            and not params["x_max"] > params["x_min"]):
        diags.append(f"parameters.x_max: must exceed parameters.x_min "
                     f"({params['x_min']!r}); got {params['x_max']!r}")
    if diags:
        raise ConfigError(diags)
    return RunConfig(experiment=experiment, parameters=params,
                     physics=physics, seed=seed,
                     output_dir=str(raw.get("output_dir", ".")))


def _canonical_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(columns: Dict[str, "np.ndarray"], path: str) -> str:
    """Write named columns as CSV: 17-significant-digit floats (round-trip
    exact), LF endings, UTF-8, atomic temp-file-plus-rename."""
    names = list(columns.keys())
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if arrays and len(lengths) > 1:
        raise ValueError("columns must share one length")
    n_rows = lengths.pop() if arrays else 0
    lines = [",".join(names)]
    for i in range(n_rows):
        lines.append(",".join(_format_value(a[i]) for a in arrays))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _worker_cap() -> int:
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# field registries
# ---------------------------------------------------------------------------

def build_potential(spec: dict, grid: Grid1D) -> ScalarField:
    kind = spec.get("kind")
    x = grid.nodes()
    if kind == "harmonic":
        omega = float(spec.get("omega", 1.0))
        center = float(spec.get("center", 0.0))
        values = 0.5 * omega ** 2 * (x - center) ** 2
    elif kind == "zero" or kind == "box":
        values = np.zeros_like(x)
    elif kind == "linear":
        values = float(spec.get("slope", 1.0)) * x
    else:
        raise ConfigError([f"parameters.potential.kind: unknown kind {kind!r}"])
    return ScalarField(grid, values, kind="potential")


def build_gauge_component(spec: dict) -> Callable:
    kind = spec.get("kind")
    if kind == "zero":
        return lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "uniform_sin":  # A(t) = amplitude * sin(omega t)
        amp = float(spec.get("amplitude", 1.0))
        omega = float(spec.get("omega", 1.0))
        return lambda x, t: amp * math.sin(omega * t) \
            * np.ones_like(np.asarray(x, dtype=float))
    if kind == "harmonic":
        omega = float(spec.get("omega", 1.0))
        return lambda x, t: 0.5 * omega ** 2 * np.asarray(x, dtype=float) ** 2
    raise ConfigError([f"field kind {kind!r} unknown"])


def build_chi(spec: dict) -> Callable:
    kind = spec.get("kind")
    if kind == "x_sin_t":
        amp = float(spec.get("amplitude", 1.0))
        return lambda x, t: amp * np.asarray(x, dtype=float) * math.sin(t)
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        return lambda x, t: value * np.ones_like(np.asarray(x, dtype=float))
    raise ConfigError([f"parameters.chi.kind: unknown kind {kind!r}"])


def build_initial(spec: dict, grid: Grid1D) -> WaveField:
    kind = spec.get("kind")
    if kind != "gaussian":
        raise ConfigError([f"parameters.initial.kind: unknown kind {kind!r}"])
    sigma = float(spec.get("sigma", 1.0))
    x0 = float(spec.get("x0", 0.0))
    k0 = float(spec.get("k0", 0.0))
    x = grid.nodes()
    packet = np.exp(-(x - x0) ** 2 / (4.0 * sigma ** 2)) \
        * np.exp(1j * k0 * x)
    return normalized_wave(grid, packet)


def build_model(spec: dict) -> eprb.CorrelationModel:
    kind = spec.get("kind", "singlet")
    if kind == "singlet":
        return eprb.CorrelationModel.singlet()
    if kind == "triplet_z0":
        return eprb.CorrelationModel.triplet_z0()
    if kind == "general":
        return eprb.CorrelationModel.general(int(spec.get("K", 1)),
                                             float(spec.get("phi", 0.0)))
    raise ConfigError([f"parameters.model.kind: unknown kind {kind!r}"])


# ---------------------------------------------------------------------------
# experiment handlers (each returns {filename: columns})
# ---------------------------------------------------------------------------

def _scan_thetas(params) -> np.ndarray:
    return np.linspace(params["theta_start"], params["theta_stop"],
                       params["steps"] + 1)


def _run_eprb_scan(config: RunConfig):
    params = config.parameters
    model = build_model(params["model"])
    thetas = _scan_thetas(params)
    trials = params["trials"]

    def one_point(index_theta):
        index, theta = index_theta
        counts = eprb.simulate_pairs(theta, model, trials, config.seed,
                                     first_trial=index * trials)
        return index, counts

    results = [None] * thetas.size
    with concurrent.futures.ThreadPoolExecutor(_worker_cap()) as pool:
        for index, counts in pool.map(one_point, enumerate(thetas)):
            results[index] = counts

    model_corr = np.array([model.correlation_vs_angle(t) for t in thetas])
    sim_corr = np.array([c.correlation() for c in results])
    sigma = np.sqrt(np.maximum(1.0 - model_corr ** 2, 0.0) / trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_sigma = np.where(sigma > 0, np.abs(sim_corr - model_corr) / sigma,
                           np.where(sim_corr == model_corr, 0.0, np.inf))
    return {"scan.csv": {"theta": thetas, "E12_model": model_corr,
                         "E12_sim": sim_corr, "n_sigma": n_sigma}}


def _run_eprb_simulate(config: RunConfig):
    params = config.parameters
    model = build_model(params["model"])
    theta = float(params["theta"])
    counts = eprb.simulate_pairs(theta, model, params["trials"], config.seed)
    table = eprb.pair_table(theta, model)
    return {
        "counts.csv": {
            "outcome_x": np.array([o[0] for o in eprb.PAIR_OUTCOMES]),
            "outcome_y": np.array([o[1] for o in eprb.PAIR_OUTCOMES]),
            "probability": np.array(table.probs),
            "count": np.array(counts.as_tuple()),
        },
        "stats.csv": {
            "theta": np.array([theta]),
            "E12_model": np.array([model.correlation_vs_angle(theta)]),
            "E12_sim": np.array([counts.correlation()]),
            "mean_x": np.array([counts.mean_x()]),
            "mean_y": np.array([counts.mean_y()]),
        },
    }


def _run_sg_scan(config: RunConfig):
    params = config.parameters
    branch = params["branch_sign"]
    thetas = _scan_thetas(params)
    trials = params["trials"]

    def one_point(index_theta):
        index, theta = index_theta
        table = sterngerlach.sg_table_from_angle(theta, branch)
        drawn = rng.sample_outcome_counts(table.probs, trials, config.seed,
                                          first_trial=index * trials)
        counts = inference.CountRecord(outcomes=sterngerlach.SG_OUTCOMES,
                                       counts=tuple(int(c) for c in drawn))
        return index, table, counts

    results = [None] * thetas.size
    with concurrent.futures.ThreadPoolExecutor(_worker_cap()) as pool:
        for index, table, counts in pool.map(one_point, enumerate(thetas)):
            results[index] = (table, counts)

    p_model = np.array([t.probs[0] for t, _ in results])
    p_sim = np.array([c.counts[0] / trials for _, c in results])
    sigma = np.sqrt(np.maximum(p_model * (1 - p_model), 0.0) / trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_sigma = np.where(sigma > 0, np.abs(p_sim - p_model) / sigma,
                           np.where(p_sim == p_model, 0.0, np.inf))
    return {"scan.csv": {"theta": thetas, "p_plus_model": p_model,
                         "p_plus_sim": p_sim, "n_sigma": n_sigma}}


def _run_evidence(config: RunConfig):
    params = config.parameters
    model = build_model(params["model"])
    theta = float(params["theta"])
    trials = params["trials"]
    family = eprb.pair_table(theta, model)
    eps_list = [float(e) for e in params["epsilons"]]
    rows = [inference.evidence_quadratic(family, [theta], [eps], trials)
            for eps in eps_list]
    return {"evidence.csv": {
        "epsilon": np.array(eps_list),
        "log_evidence": np.array([r.log_evidence for r in rows]),
        "quadratic_prediction": np.array([r.quadratic_prediction
                                          for r in rows]),
        "remainder": np.array([abs(r.log_evidence - r.quadratic_prediction)
                               for r in rows]),
        "cubic_remainder_bound": np.array([r.cubic_remainder_bound
                                           for r in rows]),
    }}


def _run_count_maximizer(config: RunConfig):
    params = config.parameters
    if "probs" in params:
        data = np.array([float(p) for p in params["probs"]])
    else:
        data = np.array([int(c) for c in params["counts"]])
    report = inference.frequency_maximizer_suite(
        data, params["n_total"], params["n_outcomes"])
    rows = {"index": [], "slot": [], "count": [], "maximizing_assignment": [],
            "frequency": []}
    for i, assignment in enumerate(report.assignments):
        for j in range(report.n_outcomes):
            rows["index"].append(i)
            rows["slot"].append(j)
            rows["count"].append(assignment.counts[j])
            rows["maximizing_assignment"].append(assignment.maximizing[j])
            rows["frequency"].append(assignment.frequencies[j])
    out = {"assignments.csv": {k: np.array(v) for k, v in rows.items()}}
    if report.maximizers is not None:
        out["summary.csv"] = {
            "n_compositions": np.array([report.n_compositions]),
            "n_maximizers": np.array([len(report.maximizers)]),
            "bound_violations": np.array([len(report.bound_violations)]),
        }
    return out


def _grid_of(params) -> Grid1D:
    return Grid1D.from_interval(float(params["x_min"]), float(params["x_max"]),
                                params["n_points"])


def _stationary_problem(config: RunConfig, grid: Grid1D, energy: float = 0.0):
    potential = build_potential(config.parameters["potential"], grid)
    phys = config.physics
    return stationary.StationaryProblem(potential=potential, energy=energy,
                                        mass=phys.mass, hbar=phys.hbar,
                                        lam=phys.lam)


def _run_tise_solve(config: RunConfig):
    params = config.parameters
    grid = _grid_of(params)
    problem = _stationary_problem(config, grid)
    states = stationary.solve_eigen(problem, grid, params["n_states"])
    x = grid.nodes()
    columns = {"x": x}
    for k, (_, wave) in enumerate(states):
        columns[f"psi_{k}"] = wave.values.real
    return {
        "eigenvalues.csv": {
            "index": np.arange(len(states)),
            "energy": np.array([e for e, _ in states]),
        },
        "states.csv": columns,
    }


def _run_tise_minimize(config: RunConfig):
    params = config.parameters
    grid = _grid_of(params)
    problem0 = _stationary_problem(config, grid)
    (energy0, ground) = stationary.solve_eigen(problem0, grid, 1)[0]
    problem = _stationary_problem(config, grid, energy=energy0)
    n = grid.n_points
    uniform = np.ones(n)
    uniform /= grid.spacing * uniform.sum()
    init = (ScalarField(grid, uniform, kind="density"),
            ScalarField(grid, np.zeros(n), kind="action"))
    result = stationary.minimize_functional(problem, grid, init,
                                            max_iter=params["max_iter"],
                                            tol=params["tol"])
    eigen_density = ground.density_values()
    sup_diff = float(np.max(np.abs(result.density.values - eigen_density)))
    return {
        "summary.csv": {
            "energy": np.array([energy0]),
            "objective": np.array([result.value]),
            "iterations": np.array([result.iterations]),
            "converged": np.array([int(result.converged)]),
            "sup_diff_vs_eigen": np.array([sup_diff]),
        },
        "fields.csv": {
            "x": grid.nodes(),
            "density_minimized": result.density.values,
            "density_eigen": eigen_density,
        },
    }


def _tdse_setup(config: RunConfig):
    params = config.parameters
    grid = _grid_of(params)
    psi0 = build_initial(params["initial"], grid)
    phys = config.physics
    fields = dynamic.GaugeField(
        A=build_gauge_component(params.get("vector_potential",
                                           {"kind": "zero"})),
        V=build_gauge_component(params.get("scalar_potential",
                                           {"kind": "zero"})),
        charge=phys.charge, light_speed=phys.light_speed)
    return grid, psi0, fields


def _run_tdse(config: RunConfig):
    params = config.parameters
    grid, psi0, fields = _tdse_setup(config)
    phys = config.physics
    prop = dynamic.PropagatorConfig(grid=grid, dt=float(params["dt"]),
                                    t_final=float(params["t_final"]),
                                    mass=phys.mass, hbar=phys.hbar,
                                    lam=phys.lam,
                                    sample_stride=params["sample_stride"])
    final, trace = dynamic.propagate(psi0, fields, prop)
    return {
        "trace.csv": {
            "t": trace.times, "norm": trace.norm, "mean_x": trace.mean_x,
            "width": trace.width, "fisher_spatial": trace.fisher_spatial,
            "hje_residual": trace.hje_residual,
        },
        "final_state.csv": {
            "x": grid.nodes(),
            "re_psi": final.values.real,
            "im_psi": final.values.imag,
        },
    }


def _run_gauge_check(config: RunConfig):
    params = config.parameters
    grid = _grid_of(params)
    psi0 = build_initial(params["initial"], grid)
    phys = config.physics
    chi = build_chi(params["chi"])
    fields = dynamic.GaugeField(charge=phys.charge,
                                light_speed=phys.light_speed)
    prop = dynamic.PropagatorConfig(grid=grid, dt=float(params["dt"]),
                                    t_final=float(params["t_final"]),
                                    mass=phys.mass, hbar=phys.hbar,
                                    lam=phys.lam, sample_stride=10 ** 9)
    t_final = float(params["t_final"])

    evolved, _ = dynamic.propagate(psi0, fields, prop)
    route_a, _ = dynamic.gauge_transform(evolved, fields, chi, t_final,
                                         lam=phys.lam)
    start_b, fields_b = dynamic.gauge_transform(psi0, fields, chi, 0.0,
                                                lam=phys.lam)
    start_b = normalized_wave(grid, start_b.values)
    route_b, _ = dynamic.propagate(start_b, fields_b, prop)

    density_diff = float(np.max(np.abs(route_a.density_values()
                                       - route_b.density_values())))
    overlap = np.vdot(route_a.values, route_b.values)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    wave_diff = float(np.max(np.abs(route_b.values - route_a.values * phase)))
    return {"gauge.csv": {
        "density_sup_diff": np.array([density_diff]),
        "wave_sup_diff_aligned": np.array([wave_diff]),
    }}


_HANDLERS = {
    "eprb-scan": _run_eprb_scan,
    "eprb-simulate": _run_eprb_simulate,
    "sg-scan": _run_sg_scan,
    "evidence": _run_evidence,
    "count-maximizer": _run_count_maximizer,
    "tise-solve": _run_tise_solve,
    "tise-minimize": _run_tise_minimize,
    "tdse-run": _run_tdse,
    "gauge-check": _run_gauge_check,
}


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run(raw_config: dict, output_dir: Optional[str] = None) -> RunManifest:
    """Validate, dispatch, write CSV outputs and the manifest atomically."""
    config = validate_config(raw_config)
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    digest = _canonical_digest(raw_config)
    started = _now()
    status, error = "ok", None
    outputs = []
    try:
        tables = _HANDLERS[config.experiment](config)
        for name, columns in tables.items():
            path = os.path.join(out_dir, name)
            emit_csv(columns, path)
            outputs.append({"name": name, "sha256": _sha256_file(path),
                            "bytes": os.path.getsize(path)})
    except ConfigError:
        raise  # configuration faults exit 2, never masquerade as numerics
    except RobustqError as exc:
        status, error = "error", type(exc).__name__
    manifest = RunManifest(config_digest=digest, tool_version=__version__,
                           started=started, finished=_now(), status=status,
                           error=error, output_files=outputs)
    manifest_path = os.path.join(out_dir, "manifest.json")
    payload = json.dumps(manifest.to_json(), indent=2).encode()
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, manifest_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustq",
        description="Robust-inference experiments: simulation, evidence, "
                    "and wave-equation cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        if name == "run":
            cmd.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            validate_config(raw)
        except ConfigError as exc:
            for diag in exc.diagnostics:
                print(f"config error: {diag}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    try:
        manifest = run(raw, output_dir=args.output_dir)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    if manifest.status != "ok":
        print(f"numerical failure: {manifest.error}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
