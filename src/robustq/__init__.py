"""robustq: robustness-of-inference numerics for reproducible experiments.

Discrete evidence and Fisher-information machinery for finite outcome
tables, the constant-Fisher correlation families of two-router pair and
single-magnet deflection experiments with seeded event simulators, and
grid solvers verifying that minimising the robustness functional
reproduces the stationary and time-dependent wave-equation solutions.

Importing the package loads only :mod:`robustq.errors`.  Every other
public name, and each submodule, is imported on first access (PEP 562),
so a counting experiment never loads the grid solvers and a grid
experiment never loads the samplers.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .errors import (BranchError, ConfigError, ConvergenceError, DomainError,
                     EmptyDataError, InvalidModelError, LinearSolveError,
                     PhaseUndefinedError, ResourceError, RobustqError,
                     StabilityError)

# the public names each submodule exports, imported on first access
_EXPORTS = {
    "grid": ("Grid1D", "ScalarField", "WaveField", "normalized_wave"),
    "inference": (
        "BoundCheck", "CountRecord", "EvidenceReport", "FisherReport",
        "FrequencyAssignment", "MaximizerReport", "OutcomeTable",
        "evidence_bound_check", "evidence_quadratic", "fisher_discrete",
        "frequency_maximizer_suite", "log_evidence", "log_multinomial_iprob",
        "multinomial_iprob", "validate_table"),
    "eprb": (
        "CorrelationModel", "Decomposition", "EventStatistics", "PairCounts",
        "RouterSetting", "accumulate_statistics", "decompose",
        "model_correlation", "pair_table", "pair_table_from_correlation",
        "recompose", "simulate_pairs", "simulate_pairs_from_table",
        "solve_robust_ode"),
    "rng": (),
    "sterngerlach": ("MagnetSetting", "sg_table", "sg_table_from_angle",
                     "simulate_sg"),
    "stationary": (
        "MinimizeResult", "ShiftVerdict", "StationaryProblem",
        "continuum_fisher", "density_functional", "functional_gradient",
        "hje_residual", "madelung_join", "madelung_split",
        "minimize_functional", "shift_covariance_check", "solve_eigen",
        "wave_functional"),
    "dynamic": (
        "DynamicFormBreakdown", "GaugeField", "Observables", "ObservableTrace",
        "PropagatorConfig", "avg_hje_residual", "dynamic_wave_functional",
        "gauge_transform", "observables", "propagate"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([
    "errors", "BranchError", "ConfigError", "ConvergenceError", "DomainError",
    "EmptyDataError", "InvalidModelError", "LinearSolveError",
    "PhaseUndefinedError", "ResourceError", "RobustqError", "StabilityError",
    *_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:  # the import binds the submodule here
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
