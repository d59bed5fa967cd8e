"""Pinned CSV digests: each config writes the same bytes as when the table
was recorded.

The configs are those of the CLI smoke test, plus three count-maximizer
configs with many tied maximisers, a 40,000-row count-maximizer and a
5,001-point tise-solve (each spans several emission chunks), a tdse-run
whose fields change every step, a gauge-check with a constant gauge
function, tise-solve and tdse-run on the smallest grids (one and two
interior nodes), and the scan models the smoke configs leave out (triplet_z0,
two general (K, phi) curves and branch -1) at 1,000 trials x 301 angles
over [-1.3, 7.0].  tise-minimize is left out: its
iteration count may change legitimately, so the benchmark holds it to
gates instead of digests.  The recorded bytes were the same with
OPENBLAS_NUM_THREADS and ROBUSTQ_THREADS both set to 1 and both set to 2.

The last tests run fresh interpreters: each experiment family loads only
its own modules (only the grid experiments load scipy, none loads
``scipy.linalg``, only the counting ones the samplers), and the grid
solvers write the same
bytes when they are the first code of their process to load scipy.  The
LAPACK calls the solvers make give, bit for bit, the results of the
``scipy.linalg`` functions that make the same calls.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import robustq
import test_cli
from robustq import GaugeField, Grid1D, PropagatorConfig, dynamic, stationary
from robustq.cli import run
from robustq.grid import kinetic_bands

SMOKE = test_cli.TestAllExperimentsSmoke.CONFIGS
WIDE_SCAN = {"theta_start": -1.3, "theta_stop": 7.0, "steps": 300,
             "trials": 1000}
CONFIGS = {
    **{experiment: {"experiment": experiment, **config}
       for experiment, config in SMOKE.items()
       if experiment != "tise-minimize"},
    # 10 maximisers: two of five equal outcomes get the extra count
    "count-maximizer-fifths": {
        "experiment": "count-maximizer",
        "parameters": {"n_outcomes": 5, "n_total": 12, "probs": [0.2] * 5}},
    # 6 maximisers: two of four units at gain 1/12 go to four outcomes
    "count-maximizer-twelfths": {
        "experiment": "count-maximizer",
        "parameters": {"n_outcomes": 4, "n_total": 10,
                       "probs": [1 / 12, 2 / 12, 3 / 12, 6 / 12]}},
    # 10 maximisers over sixtieths with two repeated probabilities
    "count-maximizer-sixtieths": {
        "experiment": "count-maximizer",
        "parameters": {"n_outcomes": 5, "n_total": 17,
                       "probs": [6 / 60, 12 / 60, 12 / 60, 15 / 60, 15 / 60]}},
    # 200 maximisers x 200 outcomes = 40,000 assignments rows
    "count-maximizer-wide": {
        "experiment": "count-maximizer",
        "parameters": {"n_outcomes": 200, "n_total": 1,
                       "probs": [1 / 200] * 200}},
    # A and V both change every step, so each step builds its own operator
    "tdse-run-driven": {
        "experiment": "tdse-run",
        "parameters": {**SMOKE["tdse-run"]["parameters"],
                       "vector_potential": {"kind": "uniform_sin"},
                       "scalar_potential": {"kind": "harmonic"}}},
    "gauge-check-constant": {
        "experiment": "gauge-check",
        "parameters": {**SMOKE["gauge-check"]["parameters"],
                       "chi": {"kind": "constant"}}},
    "tise-solve-chunks": {
        "experiment": "tise-solve",
        "parameters": {"n_points": 5001, "n_states": 2}},
    # the smallest grids: one interior node takes no LAPACK call in the
    # eigensolve, and the step's systems are three and four rows, the
    # walls' unit rows among them
    "tise-solve-3": {
        "experiment": "tise-solve",
        "parameters": {"n_points": 3, "n_states": 1}},
    "tise-solve-4": {
        "experiment": "tise-solve",
        "parameters": {"n_points": 4, "n_states": 2}},
    "tdse-run-3": {
        "experiment": "tdse-run",
        "parameters": {"n_points": 3, "t_final": 0.01}},
    "tdse-run-4": {
        "experiment": "tdse-run",
        "parameters": {"n_points": 4, "t_final": 0.01}},
    # the scan models the smoke configs leave out, over angles past [0, pi]
    "eprb-scan-triplet": {
        "experiment": "eprb-scan", "seed": 1,
        "parameters": {**WIDE_SCAN, "model": {"kind": "triplet_z0"}}},
    "eprb-scan-k2-pi": {
        "experiment": "eprb-scan", "seed": 1,
        "parameters": {**WIDE_SCAN,
                       "model": {"kind": "general", "K": 2, "phi": math.pi}}},
    "eprb-scan-k3-0": {
        "experiment": "eprb-scan", "seed": 1,
        "parameters": {**WIDE_SCAN,
                       "model": {"kind": "general", "K": 3, "phi": 0.0}}},
    "sg-scan-minus": {
        "experiment": "sg-scan", "seed": 1,
        "parameters": {**WIDE_SCAN, "branch_sign": -1}},
}

DIGESTS = {
    "count-maximizer": {
        "assignments.csv":
            "a0f30a9c19b5ab7be0753634f80da0877d47f011ce5c28fddb8a6d7dab216d0f",
        "summary.csv":
            "162ba0f949aca307a49065a07c5c94e051647f9127dfc9d07776a28c8a4ccd4a",
    },
    "count-maximizer-fifths": {
        "assignments.csv":
            "bb5fd84deef85cac29b40af76d943cc6c0bd2c8111b814b5c025b9e8f15e552c",
        "summary.csv":
            "5a29fbbca458284d91479a8d72fe3116eab405a4b1f89e69b4b443dc11cdae10",
    },
    "count-maximizer-sixtieths": {
        "assignments.csv":
            "b83d44e023a5ddd68c287a19d9a8a42ca066ddf6f0b5a53c7e7ba56d7c13771a",
        "summary.csv":
            "2622e5657f16b62eba13c29093a0bae82a1da5563793d2067c1d0e88d10c511a",
    },
    "count-maximizer-wide": {
        "assignments.csv":
            "74addd4716d7582de5712f3a491e18d88a967e6c8a6575f99c3585a879f3a415",
        "summary.csv":
            "4d1b7f4c8cb7691811b5a9470e456fa2a1b4848bec54de49aba2b1fb4c9ac159",
    },
    "count-maximizer-twelfths": {
        "assignments.csv":
            "4afaf909d90c82771418778fc476daf21c90f7dac52cfeaeed0376be01a9691f",
        "summary.csv":
            "0a25c38d297ab48d8abde88694a3faa02f293f8c080c302c02aa72f6c3dcc523",
    },
    "eprb-scan": {
        "scan.csv":
            "71df6d1d94e4a4ae530e848a97afcf617a5ba77b9cd22b9e4741a64d96be1c03",
    },
    "eprb-scan-k2-pi": {
        "scan.csv":
            "00f3f4cc65e10eac1c40e796aed089d301600244633259a87dc5c1df59b1963a",
    },
    "eprb-scan-k3-0": {
        "scan.csv":
            "65c33bedd3c1364ecad9aa1caa11f8ce5c27e80570b486e9a58c2cab67020df0",
    },
    "eprb-scan-triplet": {
        "scan.csv":
            "009194edae5dc3303a797ee1654b905b0caacecb7a6a49571b3c20ace98269eb",
    },
    "eprb-simulate": {
        "counts.csv":
            "ea0f5c6b8e95dd1e0401262d48b061caf8aceabed2b1a1a533c50966ed5796d6",
        "stats.csv":
            "10a5816da856a30ffa08ef8686b9a155437b04552529f23c478d2304a4841143",
    },
    "evidence": {
        "evidence.csv":
            "a1b373fa8d1aec28b1e5f9d4c64ff17b5c79763fd79c7ab3b6586b286f10988c",
    },
    "gauge-check": {
        "gauge.csv":
            "64bdc828bb2b62013c67ed841e45ef52873f113d3f2f7843420362bcadcef340",
    },
    "gauge-check-constant": {
        "gauge.csv":
            "b38737daeb12ea1b121272f756d7a304bc325fb53383646b6d7ba2420e7f1e92",
    },
    "sg-scan": {
        "scan.csv":
            "585c60e9906fe0b94714cd416c1d78a80da3ed4cf57a7e012ea91ff8c9e1273a",
    },
    "sg-scan-minus": {
        "scan.csv":
            "fccdb0f4b0b00b4706427b2f0a5128eb92f7990a6178271961a65b026a126f41",
    },
    "tdse-run": {
        "final_state.csv":
            "8f1ab7eff374eba64c10bb9ed69902d900a83a91c06900a7c2341d18ff357d76",
        "trace.csv":
            "4b0c38dffd0fa39255dc98eb05874ec41c493df9b6ad2fbbd5f78a7148a1d29f",
    },
    "tdse-run-3": {
        "final_state.csv":
            "b3c890065e7854e411d6eb6f29b21d49675081ebdcbd13318eb62cab817dd961",
        "trace.csv":
            "965d9dc9764b6870e415269a78afc9099a24100e266cfe7e64dc038da1b4549b",
    },
    "tdse-run-4": {
        "final_state.csv":
            "bf545cce512b3fd350b151c9f3ae62c0a81a27ff59d6ad48d80154c2253fd25d",
        "trace.csv":
            "a1a68affa1d7acd8d33751bc5436b75fe29b2e9e8e65019b1787ae768a965111",
    },
    "tdse-run-driven": {
        "final_state.csv":
            "2d8ed887a65e191e927cdebe7b4bf7a37c944117b0234f58a9576ffc576e5ad5",
        "trace.csv":
            "41f5416794c9350b364af0a0e794db08f7f14c888fb1b5bc798d5065d832a6e6",
    },
    "tise-solve": {
        "eigenvalues.csv":
            "bfc61c78b2bcb0082e8ed7c2fbee620444eb9121645d234214137ca208605e31",
        "states.csv":
            "e4f59e1635504eed8e85167cd821189f093fa1e7444daeedc4719e174eceb659",
    },
    "tise-solve-3": {
        "eigenvalues.csv":
            "0b6d5a02e7d233e33065c9dab0a896f13341c5d78d9bce296be2fad65325e735",
        "states.csv":
            "7867207cfb929663b28720da62eb21c2ea74f35326da70b6dcda0ea23204b76c",
    },
    "tise-solve-4": {
        "eigenvalues.csv":
            "df8be949c113fb1d7d86fdbc48a3d108e2777db9cd28038b566833934153539c",
        "states.csv":
            "7f0c4b6fb2be7bac959b5fdafd4a7e41a1438f19a8bd8019d4194ff1d635315b",
    },
    "tise-solve-chunks": {
        "eigenvalues.csv":
            "9ddba745cd2dd0645d76156c66b6e35e3374cf341ff23128f3b0f80a218e6fc8",
        "states.csv":
            "d444410ccaf0770536ece2ae7fe7437092d2ca7821e2c28e0e37f9e825163a66",
    },
}


def digests_of(name, out_dir):
    manifest = run(CONFIGS[name], output_dir=str(out_dir))
    assert manifest.status == "ok"
    return {entry["name"]: hashlib.sha256(
        (out_dir / entry["name"]).read_bytes()).hexdigest()
        for entry in manifest.output_files}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_pinned_digests(name, tmp_path):
    assert digests_of(name, tmp_path) == DIGESTS[name]


GRID_EXPERIMENTS = ("tise-solve", "tise-minimize", "tdse-run", "gauge-check")
# Imports robustq.cli, validates the configs given, runs them in order, and
# prints the robustq modules and the watched modules loaded after each
# stage, and the digests written.
MODULE_LOADS_SCRIPT = """\
import json, os, sys
import robustq.cli as cli
configs, out = json.loads(sys.argv[1]), sys.argv[2]
WATCHED = ("numpy.random", "concurrent.futures", "scipy", "scipy.linalg")
def loaded_now():
    return sorted(name for name in sys.modules
                  if name.partition(".")[0] == "robustq" or name in WATCHED)
loaded = {"import": loaded_now()}
for raw in configs.values():
    cli.validate_config(raw)
loaded["validate"] = loaded_now()
digests = {}
for name, raw in configs.items():
    manifest = cli.run(raw, output_dir=os.path.join(out, name))
    digests[name] = {e["name"]: e["sha256"] for e in manifest.output_files}
    loaded[name] = loaded_now()
print(json.dumps({"loaded": loaded, "digests": digests}))
"""
# Each family runs in its own interpreter, its experiments in this order,
# with the modules each stage adds to those loaded before it.  Importing
# the CLI loads robustq, robustq.cli and robustq.errors alone; a grid
# experiment never loads the samplers, numpy.random or a thread pool, a
# counting experiment never loads the grid solvers or scipy, and
# count-maximizer loads the inference module alone.
MODULE_LOADS = {
    "counting": {
        "validate": ["robustq.eprb", "robustq.inference", "robustq.rng"],
        "eprb-simulate": ["numpy.random"],
        "evidence": [],
        "eprb-scan": ["concurrent.futures"],
        "sg-scan": ["robustq.sterngerlach"]},
    "count-maximizer": {
        "validate": ["robustq.inference"],
        "count-maximizer": []},
    "grid": {
        "validate": ["robustq.dynamic", "robustq.grid", "robustq.stationary"],
        # _csvfloat: each writes a float table of at least 512 values
        "tise-solve": ["robustq._csvfloat", "robustq._lapack", "scipy"],
        "tise-minimize": [], "tdse-run": [], "gauge-check": []},
}


def fresh_interpreter(code, *args):
    """Standard output of ``code`` run by a new interpreter on this
    checkout's sources."""
    src = os.path.dirname(os.path.dirname(robustq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300).stdout


def test_only_grid_experiments_load_scipy(tmp_path):
    digests = {}
    for family, stages in MODULE_LOADS.items():
        configs = {name: {"experiment": name, **SMOKE[name]}
                   for name in stages if name != "validate"}
        result = json.loads(fresh_interpreter(
            MODULE_LOADS_SCRIPT, json.dumps(configs), str(tmp_path)))
        loaded = ["robustq", "robustq.cli", "robustq.errors"]
        expected = {"import": loaded}
        for stage, added in stages.items():
            loaded = expected[stage] = sorted(loaded + added)
        assert result["loaded"] == expected, family
        digests.update(result["digests"])
    assert set(digests) == set(SMOKE)
    pinned = [name for name in digests if name in DIGESTS]  # no tise-minimize
    assert {name: digests[name] for name in pinned} == {
        name: DIGESTS[name] for name in pinned}


# Direct calls of the three grid solvers, each the first scipy user of its
# interpreter; ``result`` is a list of arrays.
SOLVER_CALLS = {
    "solve_eigen": """\
from robustq import Grid1D, ScalarField, StationaryProblem, solve_eigen
grid = Grid1D.from_interval(-10.0, 10.0, 301)
potential = ScalarField(grid, 0.5 * grid.nodes() ** 2, kind="potential")
states = solve_eigen(StationaryProblem(potential, 0.0), grid, 2)
result = [np.array([e for e, _ in states])] + [w.values for _, w in states]
""",
    "minimize_functional": """\
from robustq import Grid1D, ScalarField, StationaryProblem, minimize_functional
grid = Grid1D.from_interval(-3.0, 3.0, 61)
potential = ScalarField(grid, 0.5 * grid.nodes() ** 2, kind="potential")
init = (ScalarField(grid, np.full(61, 1.0 / (61 * grid.spacing)),
                    kind="density"),
        ScalarField(grid, np.zeros(61), kind="action"))
result = minimize_functional(StationaryProblem(potential, 0.5), grid, init,
                             max_iter=50)
result = [result.density.values, result.action.values, result.history]
""",
    # 399 interior nodes between the walls' unit rows: zgttrf, then zgttrs
    "propagate": """\
from robustq import GaugeField, Grid1D, PropagatorConfig, normalized_wave, propagate
grid = Grid1D.from_interval(-10.0, 10.0, 401)
psi0 = normalized_wave(grid, np.exp(-grid.nodes() ** 2 + 0.5j * grid.nodes()))
final, trace = propagate(psi0, GaugeField(), PropagatorConfig(
    grid=grid, dt=1e-3, t_final=0.02, sample_stride=5))
result = [final.values, trace.norm, trace.width, trace.hje_residual]
""",
    # 2 interior nodes: the smallest system with a coupling, four rows
    "propagate-two-nodes": """\
from robustq import GaugeField, Grid1D, PropagatorConfig, normalized_wave, propagate
grid = Grid1D.from_interval(-1.0, 1.0, 4)
psi0 = normalized_wave(grid, np.array([0.0, 1.0, 0.5j, 0.0]))
final, trace = propagate(psi0, GaugeField(), PropagatorConfig(
    grid=grid, dt=1e-3, t_final=0.005, sample_stride=10 ** 9))
result = [final.values, trace.norm, trace.mean_x]
""",
}
SOLVER_HEAD = "import sys\nimport numpy as np\nimport robustq\n"
SOLVER_TAIL = """\
import hashlib
assert "scipy" in sys.modules and "scipy.linalg" not in sys.modules
print(hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest())
"""


@pytest.mark.parametrize("name", sorted(SOLVER_CALLS))
def test_grid_solver_loads_scipy_itself(name):
    # the bytes in a fresh interpreter are those of the same call here,
    # made with scipy loaded beforehand
    import scipy.linalg  # noqa: F401
    code = SOLVER_HEAD + 'assert "scipy" not in sys.modules\n' \
        + SOLVER_CALLS[name]
    namespace = {}
    exec(SOLVER_HEAD + SOLVER_CALLS[name], namespace)
    expected = hashlib.sha256(b"".join(
        a.tobytes() for a in namespace["result"])).hexdigest()
    assert fresh_interpreter(code + SOLVER_TAIL).strip() == expected


@pytest.mark.parametrize("n_interior", [1, 2, 3, 999, 19_999])
def test_lapack_calls_match_scipy_linalg(n_interior):
    # the eigensolve against eigh_tridiagonal, and the Crank-Nicolson solve
    # against solve_banded, on the same bands, bit for bit
    import scipy.linalg
    grid = Grid1D.from_interval(-10.0, 10.0, n_interior + 2)
    x = grid.nodes()[1:-1]
    _, diag, off = kinetic_bands(1.0, 4.0, grid.spacing, 0.5 * x ** 2)
    off = np.full(n_interior - 1, off)
    # a zero in the middle splits the matrix into two blocks, whose
    # eigenvalues interleave
    split = off.copy()
    if split.size:
        split[split.size // 2] = 0.0
    count = min(n_interior, 8)
    for e in (off, split):
        got = stationary._lowest_eigenpairs(diag, e, count)
        expected = scipy.linalg.eigh_tridiagonal(diag, e, select="i",
                                                 select_range=(0, count - 1))
        for a, b in zip(got, expected):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                       b.tobytes())

    fields = GaugeField(A=lambda xs, t: 0.3 * np.sin(xs),
                        V=lambda xs, t: 0.5 * xs ** 2)
    config = PropagatorConfig(grid=grid, dt=1e-3, t_final=0.0)
    # nonzero walls, which the step must return as +0.0
    psi = np.pad(np.exp(-x ** 2 + 0.5j * x), 1, constant_values=-0.3 - 0.4j)
    cache = {"nodes": x, "links": 0.5 * (x[:-1] + x[1:])}
    # the second step reuses the cached operator, whose factors the first
    # solve must leave as they were
    out, again = (dynamic._cn_step(psi, fields, 5e-4, config, cache)
                  for _ in range(2))
    # solve_banded on the interior system alone, padded with zeros
    op = cache["operator"]
    interior, explicit, bands = psi[1:-1], op.explicit[1:-1], op.bands[:, 1:-1]
    rhs = explicit * interior
    rhs[:-1] -= bands[0, 1:] * interior[1:]
    rhs[1:] -= bands[2, :-1] * interior[:-1]
    reference = np.pad(scipy.linalg.solve_banded((1, 1), bands, rhs), 1)
    assert not np.signbit(out[[0, -1]].view(float)).any()
    assert out.tobytes() == again.tobytes() == reference.tobytes()
