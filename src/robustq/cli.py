"""Command-line front end: JSON configs in, CSV files and a run manifest out.

Usage:
    robustq run --config cfg.json [--output-dir DIR]
    robustq validate --config cfg.json

Exit status: 0 success, 2 config validation failure, 3 any other failure
(the exception's class name lands in the manifest, or on stderr when the
output directory cannot hold one).  Stochastic experiments
require an explicit seed; identical (config, version) pairs produce
byte-identical CSV output.  The environment variable ROBUSTQ_THREADS caps
the worker count for parameter scans, which never exceeds the CPU count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, NamedTuple,
                    Optional)

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidModelError, RobustqError

# The library modules are imported by the functions that call them, so a
# run loads its own experiment family's alone: a scan never loads the grid
# solvers or scipy, a grid experiment never the samplers.  Calls go through
# the module attribute (rng.sample_outcome_counts, ...), where a wrapper
# set on the module takes effect.
if TYPE_CHECKING:
    from . import dynamic, eprb
    from .grid import Grid1D, ScalarField, WaveField

THREADS_ENV = "ROBUSTQ_THREADS"


@dataclass(frozen=True, eq=False)
class Physics:
    hbar: float
    mass: float
    lam: float
    charge: float
    light_speed: float


@dataclass(frozen=True, eq=False)
class RunConfig:
    experiment: str
    parameters: dict
    physics: Physics
    seed: Optional[int]
    output_dir: str
    arrays: Optional[GridArrays] = None  # a grid experiment's, from validation


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
        return asdict(self)


# ---------------------------------------------------------------------------
# config declarations and validation
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config key: its type, default and admissible range.

    ``type`` is int, float (any finite number), bool, str, list (nonempty,
    entries per ``items``) or dict (members per ``fields`` or, with
    ``kinds``, per its "kind").  A default of None leaves the key unset, as
    does JSON null.  ``least``/``most`` are inclusive, ``above`` exclusive.
    """

    type: type
    default: Any = _REQUIRED
    least: Optional[float] = None
    most: Optional[float] = None
    above: Optional[float] = None
    choices: tuple = ()
    items: Optional["Field"] = None
    fields: Optional[Dict[str, "Field"]] = None
    kinds: Optional[Dict[str, Dict[str, "Field"]]] = None


_MODEL = Field(dict, {"kind": "singlet"}, kinds={
    "singlet": {}, "triplet_z0": {},
    # the library owns the admissible (K, phi); see _check_relations
    "general": {"K": Field(int, 1), "phi": Field(float, 0.0)},
})
_POTENTIAL = Field(dict, {"kind": "harmonic"}, kinds={
    "harmonic": {"omega": Field(float, 1.0), "center": Field(float, 0.0)},
    "zero": {}, "box": {},
    "linear": {"slope": Field(float, 1.0)},
})
_INITIAL = Field(dict, {"kind": "gaussian"}, kinds={
    "gaussian": {"sigma": Field(float, 1.0, above=0), "x0": Field(float, 0.0),
                 "k0": Field(float, 0.0)},
})
_GAUGE = Field(dict, {"kind": "zero"}, kinds={
    "zero": {},
    "uniform_sin": {"amplitude": Field(float, 1.0),
                    "omega": Field(float, 1.0)},
    "harmonic": {"omega": Field(float, 1.0)},
})
_CHI = Field(dict, {"kind": "x_sin_t"}, kinds={
    "x_sin_t": {"amplitude": Field(float, 1.0)},
    "constant": {"value": Field(float, 1.0)},
})

_PHYSICS = {
    "hbar": Field(float, 1.0, above=0),
    "mass": Field(float, 1.0, above=0),
    "charge": Field(float, 1.0),
    "light_speed": Field(float, 1.0, above=0),
}  # lambda is always 4 / hbar^2
_TOP = {
    "experiment": Field(str),
    "physics": Field(dict, {}, fields=_PHYSICS),
    "output_dir": Field(str, "."),
}

_TRIALS = Field(int, least=1)
_DT = Field(float, 1e-3, above=0)
_SCAN = {
    "theta_start": Field(float, 0.0),
    "theta_stop": Field(float, math.pi),
    "steps": Field(int, 64, least=0),
    "trials": _TRIALS,
}


def _grid_fields(x_min: float, x_max: float, n_points: int) -> dict:
    return {"x_min": Field(float, x_min), "x_max": Field(float, x_max),
            "n_points": Field(int, n_points, least=3)}


class Experiment(NamedTuple):
    """An experiment: its handler, whether it needs a seed, its parameters."""

    handler: Callable[[RunConfig], dict]
    stochastic: bool
    parameters: Dict[str, Field]


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _check_object(raw: dict, fields: Dict[str, Field], prefix: str,
                  diags: list) -> dict:
    """Validated copy of the object ``raw`` with its defaults filled in;
    ``prefix`` is its key path with a trailing dot ("" at the root)."""
    for key in raw:
        if key not in fields:
            diags.append(f"{prefix}{key}: unknown key")
    out = {}
    for key, field in fields.items():
        value = raw.get(key, field.default)
        if value is None and field.default is None:
            continue  # an unset optional key
        if value is _REQUIRED:
            diags.append(f"{prefix}{key}: required")
            continue
        value = _check_value(value, field, prefix + key, diags)
        if value is not None:
            out[key] = value
    return out


def _check_value(value, field: Field, path: str, diags: list):
    """``value`` checked against ``field``: integral floats become int and
    numbers become float.  None after a diagnostic."""
    def fail(message):
        diags.append(f"{path}: {message}")

    if field.type is dict:
        if not isinstance(value, dict):
            return fail("expected an object")
        fields = field.fields
        if field.kinds is not None:
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in field.kinds:
                diags.append(f"{path}.kind: must be one of "
                             f"{', '.join(sorted(field.kinds))}; got {kind!r}")
                return None
            fields = {"kind": Field(str), **field.kinds[kind]}
        return _check_object(value, fields, path + ".", diags)
    if field.type is list:
        if not isinstance(value, list) or not value:
            return fail(f"expected a nonempty list; got {value!r}")
        items = [_check_value(v, field.items, f"{path}[{i}]", diags)
                 for i, v in enumerate(value)]
        return None if None in items else items

    if field.type is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    wanted = (int, float) if field.type is float else field.type
    if isinstance(value, bool) != (field.type is bool) \
            or not isinstance(value, wanted):
        return fail(f"expected {_TYPE_NAMES[field.type]}; got {value!r}")
    if field.type is float:
        if not abs(value) <= sys.float_info.max:  # NaN, inf, too large an int
            return fail(f"must be finite; got {value!r}")
        value = float(value)
    if field.choices and value not in field.choices:
        return fail(f"must be one of {', '.join(map(str, field.choices))}; "
                    f"got {value!r}")
    if field.least is not None and value < field.least:
        return fail(f"must be at least {field.least}; got {value!r}")
    if field.most is not None and value > field.most:
        return fail(f"must be at most {field.most}; got {value!r}")
    if field.above is not None and not value > field.above:
        return fail(f"must exceed {field.above}; got {value!r}")
    return value


def _check_relations(top: dict, diags: list) -> Optional[GridArrays]:
    """The rules that span keys, run once every key is valid on its own,
    and a grid experiment's arrays, built once the other rules pass.
    Where the library owns a rule, it is asked rather than restated."""
    phys, p = top["physics"], top["parameters"]
    if "x_min" in p:
        # the grid family (dynamic imports stationary and grid) before any
        # of the run's arrays: compiled between freed arrays, the modules'
        # long-lived objects split the heap's free space, and the grid
        # benchmark's peak RSS grew by 2.4 MB in some checkouts
        from . import dynamic
    budgets = []  # (key path, what the run needs, budget, unit)
    hbar_sq = phys["hbar"] * phys["hbar"]
    if not (0.0 < hbar_sq < math.inf and 4.0 / hbar_sq < math.inf):
        diags.append(f"physics.hbar: hbar^2 and lambda = 4 / hbar^2 must be "
                     f"nonzero and finite; got hbar = {phys['hbar']!r}")
    if "theta_start" in p \
            and not math.isfinite(p["theta_stop"] - p["theta_start"]):
        diags.append(f"parameters.theta_stop: must lie a finite distance "
                     f"from parameters.theta_start ({p['theta_start']!r}); "
                     f"got {p['theta_stop']!r}")
    if "x_min" in p and not p["x_max"] > p["x_min"]:
        diags.append(f"parameters.x_max: must exceed parameters.x_min "
                     f"({p['x_min']!r}); got {p['x_max']!r}")
    elif "x_min" in p and not math.isfinite(p["x_max"] - p["x_min"]):
        diags.append(f"parameters.x_max: must lie a finite distance from "
                     f"parameters.x_min ({p['x_min']!r}); got {p['x_max']!r}")
    if "n_states" in p and p["n_states"] > p["n_points"] - 2:
        diags.append(f"parameters.n_states: must be at most parameters."
                     f"n_points - 2 ({p['n_points'] - 2}); got {p['n_states']}")
    if "dt" in p and not dynamic.whole_steps(p["t_final"], p["dt"]):
        diags.append(f"parameters.t_final: must be a whole number of "
                     f"parameters.dt ({p['dt']!r}) steps; got {p['t_final']!r}")
    elif "dt" in p:  # tdse-run, gauge-check
        n_steps = round(p["t_final"] / p["dt"])
        budgets.append(("parameters.t_final", n_steps * p["n_points"],
                        _MAX_NODE_STEPS, "node-steps (steps × n_points)"))
        if "sample_stride" in p:  # every stride-th step and the last
            budgets.append(("parameters.sample_stride",
                            -(-n_steps // p["sample_stride"]) + 1, _MAX_ROWS,
                            "trace rows"))
    if "n_points" in p:  # the grid experiments write one row per node
        budgets.append(("parameters.n_points", p["n_points"], _MAX_ROWS,
                        "CSV rows (one per grid node)"))
    if _SCHEMAS[top["experiment"]].stochastic:
        points = p.get("steps", 0) + 1
        budgets += [("parameters.trials", p["trials"] * points, _MAX_DRAWS,
                     "draws (trials × scan points)"),
                    ("parameters.steps", points, _MAX_ROWS, "scan rows")]
    diags.extend(f"{path}: the run needs {need} {what}, over the budget of "
                 f"{budget}" for path, need, budget, what in budgets
                 if need > budget)
    if "model" in p:
        try:
            build_model(p["model"])
        except InvalidModelError as exc:
            diags.append(f"parameters.model: {exc}")
    if "n_outcomes" in p:
        given = [key for key in ("probs", "counts") if key in p]
        if len(given) != 1:
            diags.append("parameters.probs: exactly one of parameters.probs "
                         "and parameters.counts is required")
        elif len(p[given[0]]) != p["n_outcomes"]:
            diags.append(f"parameters.{given[0]}: must have parameters."
                         f"n_outcomes ({p['n_outcomes']}) entries; "
                         f"got {len(p[given[0]])}")
        elif "counts" in p and sum(p["counts"]) != p["n_total"]:
            diags.append(f"parameters.counts: must sum to parameters.n_total "
                         f"({p['n_total']}); got {sum(p['counts'])}")
        elif "probs" in p:
            from . import inference
            table = inference.OutcomeTable(
                outcomes=range(p["n_outcomes"]), probs=p["probs"])
            diags.extend(f"parameters.probs: {violation}"
                         for violation in inference.validate_table(table))
    if "x_min" in p and not diags:  # the grid and its size have passed
        try:
            return build_grid_arrays(p, phys)
        except ConfigError as exc:
            diags.extend(exc.diagnostics)


def validate_config(raw) -> RunConfig:
    """Typed RunConfig from a parsed JSON object, every default filled in;
    raises ConfigError with one diagnostic per offending key path."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    experiment = raw.get("experiment")
    schema = _SCHEMAS.get(experiment) if isinstance(experiment, str) else None
    if schema is None:
        raise ConfigError([f"experiment: must be one of "
                           f"{', '.join(EXPERIMENTS)}; got {experiment!r}"])
    diags = []
    # stochastic experiments have no wall-clock default seed
    seed = Field(int, _REQUIRED if schema.stochastic else None, least=0,
                 most=2 ** 64 - 1)
    fields = {**_TOP, "seed": seed,
              "parameters": Field(dict, {}, fields=schema.parameters)}
    top = _check_object(raw, fields, "", diags)
    arrays = _check_relations(top, diags) if not diags else None
    if diags:
        raise ConfigError(diags)
    phys = top["physics"]
    return RunConfig(experiment=experiment, parameters=top["parameters"],
                     physics=Physics(lam=4.0 / phys["hbar"] ** 2, **phys),
                     seed=top.get("seed"),
                     output_dir=top["output_dir"], arrays=arrays)


def _canonical_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

# Rows formatted and written per chunk.  Emitting a 20,001 x 9 float table
# peaks at 0.95 MB under tracemalloc at 512 rows, and at 1.9 MB at 1,024.
EMIT_CHUNK_ROWS = 512
# Float tables of at least this many values take the bulk path, whose fixed
# cost is about 0.1 ms a table.  On a 2-CPU x86-64 machine the row template
# was faster up to 48 x 4 values, about level at 65 x 4 (a scan's 260) and
# 1.7x slower at 128 x 4, 3.3x at 512 x 4.
_BULK_MIN_VALUES = 512


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        # exact past str(int)'s digit limit; imported here, as only object
        # columns come this way and loading it costs every run about 0.3 MB
        import decimal
        return str(decimal.Decimal(int(value)))
    return format(float(value), ".17g")


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write byte ``chunks``, each as it comes, to ``path`` via a temp file
    and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # mode 0666 less the umask, as open() gives; tempfile.mkstemp's 0600
    # would survive the rename
    tmp = os.path.join(directory, f"{os.path.basename(path)}."
                       f"{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _as_doubles(part: np.ndarray) -> list:
    # casting a float32 signalling NaN warns; it still formats as "nan"
    with np.errstate(invalid="ignore"):
        return part.astype(float, copy=False).tolist()


def _column_format(array: np.ndarray):
    """(format, converter) for one column: ``%d`` for integer dtypes,
    ``%.17g`` on doubles for float and bool dtypes, and the per-value rule
    of :func:`_format_value` for anything else, such as object columns."""
    if array.ndim == 1 and array.dtype.kind in "iu":
        return "%d", np.ndarray.tolist
    if array.ndim == 1 and array.dtype.kind in "fb":
        return "%.17g", _as_doubles
    return "%s", lambda part: [_format_value(v) for v in part]


def _csv_chunks(names, arrays, n_rows: int):
    """The header line, then the rows in chunks of ``EMIT_CHUNK_ROWS``:
    laid out by array arithmetic for a large enough table of float and bool
    columns, else formatted by one ``%`` of a repeated row template."""
    yield (",".join(names) + "\n").encode("utf-8")
    if n_rows * len(arrays) >= _BULK_MIN_VALUES and all(
            a.ndim == 1 and a.dtype.kind in "fb" for a in arrays):
        # imported here, so a run whose tables are all small or hold
        # integers (count-maximizer, a 65-angle scan) never loads it
        from . import _csvfloat
        yield from _csvfloat.row_chunks(arrays, n_rows, EMIT_CHUNK_ROWS)
        return
    formats = [_column_format(a) for a in arrays]
    row = ",".join(fmt for fmt, _ in formats) + "\n"
    for start in range(0, n_rows, EMIT_CHUNK_ROWS):
        stop = min(start + EMIT_CHUNK_ROWS, n_rows)
        columns = [convert(a[start:stop])
                   for a, (_, convert) in zip(arrays, formats)]
        values = tuple(itertools.chain.from_iterable(zip(*columns)))
        yield ((row * (stop - start)) % values).encode("utf-8")


def emit_csv(columns: Dict[str, "np.ndarray"], path: str) -> str:
    """Write named columns as CSV and return ``path``: each float as
    ``format(v, ".17g")`` writes it (17 significant digits, round-trip
    exact), LF endings, UTF-8, atomic temp-file-plus-rename.  Rows are
    formatted and written ``EMIT_CHUNK_ROWS`` at a time, so memory beyond
    the columns is bounded by one chunk.  A table of at least
    ``_BULK_MIN_VALUES`` values whose columns are all float or bool is laid
    out by array arithmetic (:mod:`robustq._csvfloat`), any other by a row
    template; both write the same bytes."""
    names = list(columns.keys())
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if arrays and len(lengths) > 1:
        raise ValueError("columns must share one length")
    n_rows = lengths.pop() if arrays else 0
    _write_atomic(path, _csv_chunks(names, arrays, n_rows))
    return path


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _worker_cap() -> int:
    """Scan workers: ROBUSTQ_THREADS if set, never more than the CPUs."""
    cpus = max(1, os.cpu_count() or 1)
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return cpus
    try:
        return min(cpus, max(1, int(raw)))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# field registries (validated specs only)
# ---------------------------------------------------------------------------

def build_potential(spec: dict, grid: Grid1D) -> ScalarField:
    from .grid import ScalarField
    x = grid.nodes()
    if spec["kind"] == "harmonic":
        values = 0.5 * spec["omega"] ** 2 * (x - spec["center"]) ** 2
    elif spec["kind"] == "linear":
        values = spec["slope"] * x
    else:  # "zero" and "box": free inside the Dirichlet walls
        values = np.zeros_like(x)
    return ScalarField(grid, values, kind="potential")


def build_gauge_component(spec: dict) -> Callable:
    if spec["kind"] == "uniform_sin":  # A(t) = amplitude * sin(omega t)
        amp, omega = spec["amplitude"], spec["omega"]
        return lambda x, t: amp * math.sin(omega * t) \
            * np.ones_like(np.asarray(x, dtype=float))
    if spec["kind"] == "harmonic":
        omega = spec["omega"]
        return lambda x, t: 0.5 * omega ** 2 * np.asarray(x, dtype=float) ** 2
    return lambda x, t: np.zeros_like(np.asarray(x, dtype=float))


def build_chi(spec: dict) -> Callable:
    if spec["kind"] == "constant":
        value = spec["value"]
        return lambda x, t: value * np.ones_like(np.asarray(x, dtype=float))
    amp = spec["amplitude"]  # "x_sin_t"
    return lambda x, t: amp * np.asarray(x, dtype=float) * math.sin(t)


def build_initial(spec: dict, grid: Grid1D) -> WaveField:
    from .grid import normalized_wave
    sigma, x0, k0 = spec["sigma"], spec["x0"], spec["k0"]  # "gaussian"
    x = grid.nodes()
    packet = np.exp(-(x - x0) ** 2 / (4.0 * sigma ** 2)) \
        * np.exp(1j * k0 * x)
    # the Dirichlet walls hold zero, so the norm counts no mass there
    packet[0] = packet[-1] = 0.0
    return normalized_wave(grid, packet)


def build_model(spec: dict) -> eprb.CorrelationModel:
    from . import eprb
    if spec["kind"] == "singlet":
        return eprb.CorrelationModel.singlet()
    if spec["kind"] == "triplet_z0":
        return eprb.CorrelationModel.triplet_z0()
    return eprb.CorrelationModel.general(spec["K"], spec["phi"])


class GridArrays(NamedTuple):
    """What a grid experiment's run starts from, built on the config's grid
    by :func:`build_grid_arrays`; None where the experiment has no use."""

    grid: Grid1D
    potential: Optional[ScalarField]  # tise-solve, tise-minimize
    psi0: Optional[WaveField]  # tdse-run, gauge-check
    fields: Optional[dynamic.GaugeField]  # tdse-run, gauge-check
    gauged: Optional[tuple]  # gauge-check: route B's start and fields


def _finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("not finite")


def _on_grid(path: str, what: str, build: Callable, *args):
    """``build(*args)`` under ``np.errstate`` that raises on overflow,
    division by zero and invalid operations; a failure is a ConfigError
    at ``path``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return build(*args)
    except (ArithmeticError, ValueError) as exc:
        # args[-1] is the message; float ** puts an errno before it
        raise ConfigError([f"{path}: {what} cannot be built on the grid: "
                           f"{exc.args[-1]}"]) from None


def build_grid_arrays(p: dict, phys: dict) -> GridArrays:
    """What a grid experiment's run starts from, built from its validated
    parameters ``p`` and physics ``phys``: the grid, the potential, the
    packet, the fields, and gauge-check's transform by chi at t = 0.  The
    kinetic diagonal 2c/h^2 is checked too, as are A on the links and
    nodes and V on the nodes, and gauge-check's transform, at t = 0 and
    t_final.  Raises ConfigError at the key path whose value makes an
    array overflow, vanish or not be finite; chi is blamed for a transform
    that fails at unit constants too, else the charge."""
    from .grid import Grid1D, kinetic_bands, normalized_wave
    h = (p["x_max"] - p["x_min"]) / (p["n_points"] - 1)
    lam = 4.0 / phys["hbar"] ** 2
    _, diag, _ = kinetic_bands(phys["mass"], lam, h)
    kinetic = ConfigError([
        f"physics: the kinetic coefficient c = hbar^2 / 2m must give a "
        f"positive, finite 2c/h^2; got {float(diag)!r} at hbar = "
        f"{phys['hbar']!r}, mass = {phys['mass']!r}, h = {h!r}"])
    if not h > 0:  # no grid to build on
        raise kinetic
    grid = Grid1D.from_interval(p["x_min"], p["x_max"], p["n_points"])
    potential = fields = gauged = None
    if "potential" in p:
        potential = _on_grid("parameters.potential", "the potential",
                             build_potential, p["potential"], grid)
    if not 0.0 < diag < math.inf:
        raise kinetic
    if "initial" not in p:  # tise-solve, tise-minimize
        return GridArrays(grid, potential, None, None, None)
    from . import dynamic
    psi0 = _on_grid("parameters.initial", "the packet", build_initial,
                    p["initial"], grid)
    x = grid.nodes()
    # finite: where x + x would overflow, so does h^2, and 2c/h^2 is 0
    links = 0.5 * (x[1:-2] + x[2:-1])
    if "vector_potential" in p:  # tdse-run
        fields = dynamic.GaugeField(
            A=build_gauge_component(p["vector_potential"]),
            V=build_gauge_component(p["scalar_potential"]),
            charge=phys["charge"], light_speed=phys["light_speed"])
        for t in (0.0, p["t_final"]):
            _on_grid("parameters.vector_potential", f"A at t = {t!r}",
                     lambda: _finite(fields.a_values(links, t),
                                     fields.a_values(x, t)))
            _on_grid("parameters.scalar_potential", f"V at t = {t!r}",
                     lambda: _finite(fields.v_values(x, t)))
    if "chi" in p:  # gauge-check
        chi = build_chi(p["chi"])

        def transforms(fields, lam):
            """The transforms at t_final and 0, each array finite: route
            B's start, normalised, and fields, from the one at 0."""
            for t in (p["t_final"], 0.0):
                psi, gauged = dynamic.gauge_transform(psi0, fields, chi, t,
                                                      lam=lam)
                _finite(psi.values, gauged.a_values(links, t),
                        gauged.a_values(x, t), gauged.v_values(x, t))
            return normalized_wave(grid, psi.values), gauged

        fields = dynamic.GaugeField(charge=phys["charge"],
                                    light_speed=phys["light_speed"])
        try:
            gauged = _on_grid(
                "physics.charge", f"the gauge transform by parameters.chi "
                f"at charge = {phys['charge']!r}, light_speed = "
                f"{phys['light_speed']!r}, hbar = {phys['hbar']!r}",
                transforms, fields, lam)
        except ConfigError:
            _on_grid("parameters.chi", "the gauge transform", transforms,
                     dynamic.GaugeField(), 4.0)
            raise
    return GridArrays(grid, potential, psi0, fields, gauged)


# ---------------------------------------------------------------------------
# experiment handlers (each returns {filename: columns})
# ---------------------------------------------------------------------------

def _run_scan(config: RunConfig, rows, sim_stat, variance, names):
    """Sample each scan angle's probability row on the worker pool and
    compare its model statistic with ``sim_stat(counts, trials)``, where
    ``rows(thetas)`` gives the model column and the (P, m) probability
    rows of all P angles at once, and ``counts[j]`` holds outcome j's
    count at every angle; ``variance`` maps the model column to the
    per-trial variance.  Each worker tallies one contiguous slice of the
    rows in one call."""
    import concurrent.futures
    from . import rng
    params = config.parameters
    thetas = np.linspace(params["theta_start"], params["theta_stop"],
                         params["steps"] + 1)
    trials = params["trials"]
    model, probs = rows(thetas)

    n, workers = thetas.size, min(_worker_cap(), thetas.size)
    slices = [slice(n * w // workers, n * (w + 1) // workers)
              for w in range(workers)]

    def tally(part):
        return rng.sample_outcome_counts(probs[part], trials, config.seed,
                                         first_trial=part.start * trials)

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        counts = np.concatenate(list(pool.map(tally, slices)))

    sim = sim_stat(counts.T, trials)
    sigma = np.sqrt(np.maximum(variance(model), 0.0) / trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_sigma = np.where(sigma > 0, np.abs(sim - model) / sigma,
                           np.where(sim == model, 0.0, np.inf))
    return {"scan.csv": {"theta": thetas, names[0]: model, names[1]: sim,
                         "n_sigma": n_sigma}}


def _run_eprb_scan(config: RunConfig):
    from . import eprb
    model = build_model(config.parameters["model"])

    def rows(thetas):
        # one math.cos per angle: a vectorised cosine may round differently
        e12 = np.array([model.correlation_vs_angle(theta)
                        for theta in thetas.tolist()])
        return e12, np.stack(eprb.pair_probabilities(e12), axis=1)

    # counts in PAIR_OUTCOMES order: (++, +-, -+, --)
    return _run_scan(config, rows,
                     lambda c, n: (c[0] + c[3] - c[1] - c[2]) / n,
                     lambda corr: 1.0 - corr ** 2, ("E12_model", "E12_sim"))


def _run_sg_scan(config: RunConfig):
    from . import sterngerlach
    sign = config.parameters["branch_sign"]

    def rows(thetas):
        # sterngerlach.sg_family's expectation, one math.cos per angle
        expectation = np.array([sign * math.cos(theta)
                                for theta in thetas.tolist()])
        probs = np.stack(sterngerlach.sg_probabilities(expectation), axis=1)
        return probs[:, 0], probs

    return _run_scan(config, rows, lambda c, n: c[0] / n,
                     lambda p: p * (1 - p), ("p_plus_model", "p_plus_sim"))


def _run_eprb_simulate(config: RunConfig):
    from . import eprb
    params = config.parameters
    model = build_model(params["model"])
    theta = params["theta"]
    table = eprb.pair_table(theta, model)
    counts = eprb.simulate_pairs_from_table(table, params["trials"],
                                            config.seed)
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


def _run_evidence(config: RunConfig):
    from . import eprb, inference
    params = config.parameters
    model = build_model(params["model"])
    theta = params["theta"]
    trials = params["trials"]
    family = eprb.pair_table(theta, model)
    eps_list = params["epsilons"]
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
    from . import inference
    params = config.parameters
    data = np.array(params["probs" if "probs" in params else "counts"])
    report = inference.frequency_maximizer_suite(
        data, params["n_total"], params["n_outcomes"])
    k, m = len(report.assignments), report.n_outcomes

    def stacked(name):  # one row per (maximiser, outcome), maximiser-major
        return np.array([getattr(a, name)
                         for a in report.assignments]).reshape(k * m)

    out = {"assignments.csv": {
        "index": np.repeat(np.arange(k), m), "slot": np.tile(np.arange(m), k),
        "count": stacked("counts"),
        "maximizing_assignment": stacked("maximizing"),
        "frequency": stacked("frequencies")}}
    if report.maximizers is not None:
        out["summary.csv"] = {
            "n_compositions": np.array([report.n_compositions]),
            "n_maximizers": np.array([len(report.maximizers)]),
            "bound_violations": np.array([len(report.bound_violations)]),
        }
    return out


def _stationary_problem(config: RunConfig, energy: float = 0.0):
    from . import stationary
    phys = config.physics
    return stationary.StationaryProblem(potential=config.arrays.potential,
                                        energy=energy, mass=phys.mass,
                                        hbar=phys.hbar)


def _run_tise_solve(config: RunConfig):
    from . import stationary
    grid = config.arrays.grid
    states = stationary.solve_eigen(_stationary_problem(config), grid,
                                    config.parameters["n_states"])
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
    """One ``minimize_functional`` call from the uniform density at the
    eigensolver's ground-state energy, cross-checked against that state."""
    from . import stationary
    from .grid import ScalarField
    params, grid = config.parameters, config.arrays.grid
    (energy0, ground) = stationary.solve_eigen(
        _stationary_problem(config), grid, 1)[0]
    n = grid.n_points
    uniform = np.ones(n)
    uniform /= grid.spacing * uniform.sum()
    result = stationary.minimize_functional(
        _stationary_problem(config, energy=energy0), grid,
        (ScalarField(grid, uniform, kind="density"),
         ScalarField(grid, np.zeros(n), kind="action")),
        max_iter=params["max_iter"], tol=params["tol"])
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


def _propagator(config: RunConfig, sample_stride: int):
    from . import dynamic
    params, phys = config.parameters, config.physics
    return dynamic.PropagatorConfig(grid=config.arrays.grid, dt=params["dt"],
                                    t_final=params["t_final"],
                                    mass=phys.mass, hbar=phys.hbar,
                                    sample_stride=sample_stride)


def _run_tdse(config: RunConfig):
    from . import dynamic
    arrays = config.arrays
    prop = _propagator(config, config.parameters["sample_stride"])
    final, trace = dynamic.propagate(arrays.psi0, arrays.fields, prop)
    return {
        "trace.csv": {
            "t": trace.times, "norm": trace.norm, "mean_x": trace.mean_x,
            "width": trace.width, "fisher_spatial": trace.fisher_spatial,
            "hje_residual": trace.hje_residual,
        },
        "final_state.csv": {
            "x": arrays.grid.nodes(),
            "re_psi": final.values.real,
            "im_psi": final.values.imag,
        },
    }


def _run_gauge_check(config: RunConfig):
    from . import dynamic
    from .grid import _dot
    params, arrays = config.parameters, config.arrays
    prop = _propagator(config, 10 ** 9)
    evolved, _ = dynamic.propagate(arrays.psi0, arrays.fields, prop)
    route_a, _ = dynamic.gauge_transform(evolved, arrays.fields,
                                         build_chi(params["chi"]),
                                         params["t_final"],
                                         lam=config.physics.lam)
    route_b, _ = dynamic.propagate(*arrays.gauged, prop)

    density_diff = float(np.max(np.abs(route_a.density_values()
                                       - route_b.density_values())))
    overlap = _dot(route_a.values, route_b.values)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    wave_diff = float(np.max(np.abs(route_b.values - route_a.values * phase)))
    return {"gauge.csv": {
        "density_sup_diff": np.array([density_diff]),
        "wave_sup_diff_aligned": np.array([wave_diff]),
    }}


# Work a valid config may ask for; more is refused at validation.  At about
# 45 ns a node-step (measured on a 2-CPU x86-64 machine), 10^10 node-steps
# of propagation take some 7 minutes.
_MAX_NODE_STEPS = 10 ** 10  # n_steps * n_points of tdse-run, gauge-check
_MAX_DRAWS = 10 ** 11  # trials * (steps + 1) of a seeded experiment
_MAX_ROWS = 10 ** 6  # tdse-run trace samples; scan points; grid nodes

# The one experiment-keyed table: handler, seed requirement, parameters.
_SCHEMAS: Dict[str, Experiment] = {
    "eprb-scan": Experiment(_run_eprb_scan, True, {"model": _MODEL, **_SCAN}),
    "eprb-simulate": Experiment(_run_eprb_simulate, True, {
        "model": _MODEL, "theta": Field(float), "trials": _TRIALS}),
    "sg-scan": Experiment(_run_sg_scan, True, {
        "branch_sign": Field(int, 1, choices=(-1, 1)), **_SCAN}),
    "evidence": Experiment(_run_evidence, False, {
        "model": _MODEL, "theta": Field(float), "trials": _TRIALS,
        "epsilons": Field(list, items=Field(float))}),
    "count-maximizer": Experiment(_run_count_maximizer, False, {
        "n_outcomes": Field(int, least=2), "n_total": Field(int, least=1),
        "probs": Field(list, None, items=Field(float, above=0)),
        "counts": Field(list, None, items=Field(int, least=0,
                                                most=2 ** 63 - 1))}),
    "tise-solve": Experiment(_run_tise_solve, False, {
        "potential": _POTENTIAL, **_grid_fields(-10.0, 10.0, 1001),
        "n_states": Field(int, 4, least=1)}),
    "tise-minimize": Experiment(_run_tise_minimize, False, {
        "potential": _POTENTIAL, **_grid_fields(-3.25, 3.25, 131),
        "max_iter": Field(int, 200000, least=1),
        "tol": Field(float, 1e-15, least=0)}),
    "tdse-run": Experiment(_run_tdse, False, {
        "initial": _INITIAL, "vector_potential": _GAUGE,
        "scalar_potential": _GAUGE, **_grid_fields(-20.0, 20.0, 2001),
        "dt": _DT, "t_final": Field(float, least=0),
        "sample_stride": Field(int, 10, least=1)}),
    "gauge-check": Experiment(_run_gauge_check, False, {
        "initial": _INITIAL, "chi": _CHI, **_grid_fields(-20.0, 20.0, 4001),
        "dt": _DT, "t_final": Field(float, 0.25, least=0)}),
}
EXPERIMENTS = tuple(_SCHEMAS)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run(raw_config: dict, output_dir: Optional[str] = None) -> RunManifest:
    """Validate, dispatch, write CSV outputs and the manifest atomically.

    A config fault raises ConfigError before anything is written.  An
    output directory that cannot be made, or a manifest that cannot be
    written, raises OSError.  Any other failure is recorded in the
    manifest: status "error" and the exception's class name.
    """
    config = validate_config(raw_config)
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    digest = _canonical_digest(raw_config)
    started = _now()
    status, error = "ok", None
    outputs = []
    try:
        tables = _SCHEMAS[config.experiment].handler(config)
        for name, columns in tables.items():
            path = os.path.join(out_dir, name)
            emit_csv(columns, path)
            outputs.append({"name": name, "sha256": _sha256_file(path),
                            "bytes": os.path.getsize(path)})
    except Exception as exc:  # every failure that is not a config fault
        status, error = "error", type(exc).__name__
        if not isinstance(exc, RobustqError):
            traceback.print_exc()  # unexpected: keep where it came from
    manifest = RunManifest(config_digest=digest, tool_version=__version__,
                           started=started, finished=_now(), status=status,
                           error=error, output_files=outputs)
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  [json.dumps(manifest.to_json(), indent=2).encode()])
    return manifest


def main(argv=None) -> int:
    import argparse
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
    except (OSError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            validate_config(raw)
            print("config ok")
            return 0
        manifest = run(raw, output_dir=args.output_dir)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory or manifest is unwritable
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if manifest.status != "ok":
        print(f"run failed: {manifest.error}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
