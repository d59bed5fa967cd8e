"""Workload definitions, pinned output digests and output gates.

A workload is a fixed list of ``robustq.cli.run`` configs that one client
issues back to back.  The benchmark's ``--seed`` feeds the ``seed`` field of
the stochastic configs; the deterministic workloads ignore it.  Why each
workload exists is recorded next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 12345

# SHA-256 of every CSV at DEFAULT_SEED, taken from the commit that added the
# benchmark with ROBUSTQ_THREADS in {1, 2} and the BLAS/OpenMP thread
# variables set to 1.  tise-solve's states.csv differs when BLAS may use more
# than one thread, so the digests hold only under the benchmark's pinned
# environment.  tise-minimize is absent on purpose: its iteration count may
# change legitimately, so it is held to its gates instead.
PINNED = {
    ("scan", "eprb_scan"): {
        "scan.csv": "cfb029156a6c511f7dc19ea48a929aebdf8421d9261370864a84110c9509a912",
    },
    ("scan", "sg_scan"): {
        "scan.csv": "00a0283ed3d6d51cb3bc92095945be92f5c6884e6312f67f817213f1fdb57c04",
    },
    ("scan-fine", "eprb_scan"): {
        "scan.csv": "10c4691a43ac380da51e1789b401bbd08ebc58ddb30044ca01c2d9518686b00d",
    },
    ("scan-fine", "sg_scan"): {
        "scan.csv": "8a1a1ee04aaf77532599e06a221c2f3091d97e81380b10381bffaaf1b35c2776",
    },
    ("grid", "tise_solve"): {
        "eigenvalues.csv": "6b7023de4fef6480e3f9db884b8c221294af30e6d52d75ea1d24e96962384ef9",
        "states.csv": "2d692a3028ec1007cf8260921e0037131fa98dc1a7dbfd0f14f91e892cc92f5e",
    },
    ("grid", "tdse_run"): {
        "trace.csv": "245caf1d93b6b0318dc4110ab46eedb435b3c1ad76cb62c0eff8b26a167fd9ba",
        "final_state.csv": "9ab5eb7c0667485d6023b381a1a22bb5326aaa2b68ee12517b076638ff42d5a6",
    },
    ("grid", "gauge_check"): {
        "gauge.csv": "38854d12eb82a21510c93c288b9a4ec21a43a72b4baf832a8c011f2ae4f4e1a8",
    },
    ("enumerate", "count_maximizer"): {
        "assignments.csv": "27dd137401bd955cc482df32686e0921e7a2db0173da3d3558513c499bae1077",
        "summary.csv": "b28867a8ed96e72383a93865dee682794f3c72ea5c9339b989fb3092ebbe9813",
    },
}

Gate = Callable[[Dict[str, bytes]], List[str]]


@dataclass(frozen=True)
class Entry:
    """One config of a workload.

    ``label`` names the experiment in metric names (``<label>_s``).
    ``warmup`` is a cheaper config of the same experiment for the untimed
    warm-up call.
    ``digests`` are the pinned CSV digests that apply at this seed.
    """

    label: str
    config: dict
    warmup: dict
    digests: Optional[Dict[str, str]] = None
    gates: Tuple[Gate, ...] = field(default=())


def read_columns(payload: bytes) -> Dict[str, List[str]]:
    rows = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def column_values(files: Dict[str, bytes], name: str,
                  column: str) -> List[float]:
    return [float(v) for v in read_columns(files[name])[column]]


def _require(ok: bool, message: str) -> List[str]:
    return [] if ok else [message]


def gate_n_sigma(files):
    worst = max(column_values(files, "scan.csv", "n_sigma"))
    return _require(worst <= 6.0, f"max n_sigma {worst!r} > 6")


def gate_minimize(files):
    row = {k: v[0] for k, v in read_columns(files["summary.csv"]).items()}
    sup_diff = float(row["sup_diff_vs_eigen"])
    objective = float(row["objective"])
    return (_require(sup_diff <= 1e-3, f"sup_diff_vs_eigen {sup_diff!r} > 1e-3")
            + _require(int(row["converged"]) == 1, "minimiser did not converge")
            + _require(math.isfinite(objective),
                       f"objective {objective!r} not finite"))


def gate_norm(files):
    drift = max_norm_drift(files)
    return _require(drift <= 1e-9, f"max|norm-1| {drift!r} > 1e-9")


def max_norm_drift(files) -> float:
    return max(abs(n - 1.0) for n in column_values(files, "trace.csv", "norm"))


def gate_gauge(files):
    # acceptance criterion 13's tolerances for this grid and step
    density = column_values(files, "gauge.csv", "density_sup_diff")[0]
    wave = column_values(files, "gauge.csv", "wave_sup_diff_aligned")[0]
    return (_require(density <= 1e-8, f"density_sup_diff {density!r} > 1e-8")
            + _require(wave <= 1e-4, f"wave_sup_diff_aligned {wave!r} > 1e-4"))


def gate_bounds(files):
    violations = int(read_columns(files["summary.csv"])["bound_violations"][0])
    return _require(violations == 0, f"{violations} bound violations")


def _scan(experiment: str, seed: int, trials: int, steps: int,
          extra: dict) -> Tuple[dict, dict]:
    def config(trials, steps):
        return {"experiment": experiment, "seed": seed,
                "parameters": dict(steps=steps, trials=trials, **extra)}
    return config(trials, steps), config(1000, 8)


def build(workload: str, seed: int) -> List[Entry]:
    """The entries of ``workload`` with stochastic configs seeded by ``seed``.

    Each warm-up config runs the same experiment at a fraction of the
    size: it reaches the same code, and leaves the time budget to the
    measured calls.
    """
    config_seed = seed % 2 ** 64
    if workload == "scan":
        # ROADMAP reference sizes: the outcome tally dominates
        entries = [
            Entry("eprb_scan", *_scan("eprb-scan", config_seed, 1_000_000, 64,
                                      {"model": {"kind": "singlet"}}),
                  gates=(gate_n_sigma,)),
            Entry("sg_scan", *_scan("sg-scan", config_seed, 1_000_000, 64, {}),
                  gates=(gate_n_sigma,)),
        ]
    elif workload == "scan-fine":
        # many cheap points: one whole Philox block per 1,000 trials.  No
        # n_sigma gate: the normal approximation fails near 0 and pi here.
        entries = [
            Entry("eprb_scan", *_scan("eprb-scan", config_seed, 1000, 4096,
                                      {"model": {"kind": "triplet_z0"}})),
            Entry("sg_scan", *_scan("sg-scan", config_seed, 1000, 4096,
                                    {"branch_sign": -1})),
        ]
    elif workload == "grid":
        entries = [
            Entry("tise_minimize", {"experiment": "tise-minimize"},
                  {"experiment": "tise-minimize",
                   "parameters": {"max_iter": 200}},
                  gates=(gate_minimize,)),
            Entry("tise_solve", {"experiment": "tise-solve",
                                 "parameters": {"n_points": 20001,
                                                "n_states": 8}},
                  {"experiment": "tise-solve"}),
            Entry("tdse_run", {"experiment": "tdse-run",
                               "parameters": {"t_final": 1}},
                  {"experiment": "tdse-run", "parameters": {"t_final": 0.02}},
                  gates=(gate_norm,)),
            Entry("gauge_check", {"experiment": "gauge-check"},
                  {"experiment": "gauge-check",
                   "parameters": {"t_final": 0.02}},
                  gates=(gate_gauge,)),
        ]
    elif workload == "enumerate":
        def maximizer(n_total):
            return {"experiment": "count-maximizer",
                    "parameters": {"probs": [0.1, 0.2, 0.3, 0.4],
                                   "n_total": n_total, "n_outcomes": 4}}
        entries = [Entry("count_maximizer", maximizer(150), maximizer(20),
                         gates=(gate_bounds,))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    pinned = []
    for entry in entries:
        digests = PINNED.get((workload, entry.label))
        if "seed" in entry.config and config_seed != DEFAULT_SEED:
            digests = None
        pinned.append(Entry(entry.label, entry.config, entry.warmup, digests,
                            entry.gates))
    return pinned


WORKLOADS = ("scan", "scan-fine", "grid", "enumerate")
# workloads rerun at ROBUSTQ_THREADS=1 in the traced run
THREADED = ("scan", "scan-fine")
