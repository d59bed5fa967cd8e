"""Time-dependent propagation with vector and scalar potentials.

The propagator advances   i hbar dpsi/dt = H(t) psi   with

    H = -(hbar^2 / 2m) (d/dx - i q A(x,t) / (hbar c))^2 + V(x,t)

by Crank-Nicolson steps, fields evaluated at the temporal midpoint.  The
covariant hopping uses link phases: the coupling to A enters as the phase
exp(-i (q h / hbar c) A(x_mid, t)) on each nearest-neighbour link, with A
evaluated at the link midpoint.  This keeps the matrix Hermitian (the
scheme is exactly norm-preserving) and, for gauge functions linear in x,
makes the spatial part of a gauge transformation an exact lattice symmetry;
the node-centred alternative leaves an O(h^2) spatial gauge defect two
orders larger at the contract's step sizes.

A gauge transformation by chi(x, t) acts as

    A -> A + dchi/dx,   V -> V - (q/c) dchi/dt,
    psi -> psi * exp(i q sqrt(lambda) chi / (2 c)),

the convention under which the dynamic quadratic form's integrand is
exactly invariant for every charge and light speed (the action shifts by
(q/c) chi).  Derivatives of chi are taken by central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import LinearSolveError, PhaseUndefinedError, StabilityError
from .grid import (Grid1D, ScalarField, WaveField, gradient, kinetic_bands,
                   trapezoid)
from .stationary import _phase_action, continuum_fisher

_CHI_STEP = 6e-6  # relative central-difference step for gauge functions


def _zero_field(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class GaugeField:
    """Vector potential A(x, t), scalar potential V(x, t), charge, and c."""

    A: Callable[[np.ndarray, float], np.ndarray] = _zero_field
    V: Callable[[np.ndarray, float], np.ndarray] = _zero_field
    charge: float = 1.0
    light_speed: float = 1.0

    def __post_init__(self):
        if self.light_speed <= 0:
            raise ValueError("light_speed must be positive")

    @classmethod
    def free(cls, charge: float = 1.0, light_speed: float = 1.0) -> "GaugeField":
        return cls(charge=charge, light_speed=light_speed)

    def a_values(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.A(x, t), dtype=float),
                               np.shape(x)).copy()

    def v_values(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.V(x, t), dtype=float),
                               np.shape(x)).copy()


def whole_steps(t_final: float, dt: float) -> bool:
    """Whether ``t_final`` is a whole number of steps of size ``dt``, to a
    relative 1e-9 of the step count."""
    steps = t_final / dt
    return (math.isfinite(steps)
            and abs(steps - round(steps)) <= 1e-9 * max(1.0, abs(steps)))


@dataclass(frozen=True, eq=False)
class PropagatorConfig:
    grid: Grid1D
    dt: float
    t_final: float
    mass: float = 1.0
    hbar: float = 1.0
    lam: Optional[float] = None  # always 4 / hbar^2; None fills it in
    sample_stride: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.lam not in (None, 4.0 / self.hbar ** 2):
            raise ValueError("lam must be 4 / hbar^2")
        object.__setattr__(self, "lam", 4.0 / self.hbar ** 2)
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if not whole_steps(self.t_final, self.dt):
            raise ValueError("t_final must be a whole number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True, eq=False)
class ObservableTrace:
    """Diagnostics sampled along a run; arrays share one length.

    ``hje_residual`` is NaN at the first and last samples, where no centred
    time difference of the phase exists.
    """

    times: np.ndarray
    norm: np.ndarray
    mean_x: np.ndarray
    width: np.ndarray
    fisher_spatial: np.ndarray
    hje_residual: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("norm", "mean_x", "width", "fisher_spatial",
                     "hje_residual"):
            if len(getattr(self, name)) != n:
                raise ValueError("trace arrays must share one length")


@dataclass(frozen=True, eq=False)
class Observables:
    norm: float
    mean_x: float
    width: float
    fisher_spatial: float


def observables(psi: WaveField) -> Observables:
    """Norm, density moments, and spatial Fisher information of a field."""
    x = psi.grid.nodes()
    h = psi.grid.spacing
    p = psi.density_values()
    norm = h * float(p.sum())
    mean = h * float((x * p).sum()) / norm
    width = math.sqrt(h * float(((x - mean) ** 2 * p).sum()) / norm)
    fisher = continuum_fisher(ScalarField(psi.grid, p / norm, kind="density"))
    return Observables(norm=norm, mean_x=mean, width=width,
                       fisher_spatial=fisher)


# ---------------------------------------------------------------------------
# Crank-Nicolson propagation
# ---------------------------------------------------------------------------

class _CNOperator(NamedTuple):
    """One step's Crank-Nicolson operator: the explicit half 1 - rH and
    the implicit half 1 + rH (r = i dt / 2 hbar) as solve_banded's bands,
    with the LU factors of ``?gttrf`` (None below three interior nodes,
    which the LAPACK wrappers refuse)."""

    explicit: np.ndarray
    bands: np.ndarray
    lu: Optional[tuple]


@np.errstate(over="ignore", invalid="ignore")  # refused by the solve
def _cn_operator(fields: GaugeField, a: np.ndarray, v: np.ndarray,
                 config: PropagatorConfig) -> _CNOperator:
    """The operator of the tridiagonal H on the interior nodes, from A at
    the link midpoints (``a``) and V at the nodes (``v``): the real bands
    of :func:`grid.kinetic_bands`, the off-diagonal times the link phases.
    Bands that are not finite raise LinearSolveError, with no
    floating-point warning."""
    h, hbar = config.grid.spacing, config.hbar
    _, diag, off = kinetic_bands(config.mass, config.lam, h, v)
    link_phase = (fields.charge / (hbar * fields.light_speed)) * h * a
    r = 0.5j * config.dt / hbar
    n = diag.size
    # conj(hop) is exp(+1j * link_phase) up to the sign of a zero imaginary
    # part (at link_phase -0.0), which no result depends on
    hop = np.exp(-1j * link_phase)
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:] = r * (off * hop)
    bands[1, :] = 1.0 + r * diag
    bands[2, :-1] = r * (off * np.conj(hop))
    lu = None
    if n >= 3:
        # gttrf + gttrs make the same eliminations as solve_banded's gtsv
        if not np.all(np.isfinite(bands.view(float))):
            raise LinearSolveError("tridiagonal solve failed: array must "
                                   "not contain infs or NaNs")
        from scipy.linalg.lapack import zgttrf  # at the call, as in solve_eigen
        *lu, info = zgttrf(bands[2, :-1], bands[1], bands[0, 1:])
        if info != 0:  # an exact zero pivot
            raise LinearSolveError("tridiagonal solve failed: singular matrix")
    return _CNOperator(1.0 - r * diag, bands, lu)


def _cn_step(interior: np.ndarray, fields: GaugeField, t_mid: float,
             config: PropagatorConfig, cache: dict) -> np.ndarray:
    """One Crank-Nicolson step of the interior nodes.

    ``cache`` is a dict owned by one propagation.  It holds the interior
    ``nodes`` and the ``links`` midpoints between them, and keeps the last
    operator with the bits of the A and V values it was built from; a step
    whose values have the same bits reuses it instead of building and
    factoring it again.  Bits, not values: -0.0 and 0.0 give different
    phase bytes.
    """
    a = fields.a_values(cache["links"], t_mid)
    v = fields.v_values(cache["nodes"], t_mid)
    bits = (a.tobytes(), v.tobytes())
    if cache.get("bits") == bits:
        op = cache["operator"]
    else:
        op = _cn_operator(fields, a, v, config)
        cache.update(bits=bits, operator=op)
    rhs = op.explicit * interior
    rhs[:-1] -= op.bands[0, 1:] * interior[1:]
    rhs[1:] -= op.bands[2, :-1] * interior[:-1]
    try:
        if op.lu is None:
            from scipy.linalg import solve_banded
            out = solve_banded((1, 1), op.bands, rhs)
        else:
            from scipy.linalg.lapack import zgttrs
            out, _ = zgttrs(*op.lu, rhs, overwrite_b=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(f"tridiagonal solve failed: {exc}") from exc
    if not np.all(np.isfinite(out.view(float))):
        raise LinearSolveError("tridiagonal solve produced non-finite values")
    return out


def propagate(psi0: WaveField, fields: GaugeField, config: PropagatorConfig
              ) -> Tuple[WaveField, ObservableTrace]:
    """Crank-Nicolson run from t = 0 to t_final; returns the final field and
    the observable trace sampled every ``config.sample_stride`` steps and at
    the last step.

    The per-sample residual diagnostic uses the neighbouring fine steps for
    the centred time derivative of the phase, so its accuracy follows dt,
    not the sampling stride.  Norm drift beyond 1e-6 aborts the run.

    Each step evaluates A and V at its temporal midpoint.  While their
    values repeat bit for bit from one step to the next (fields that do not
    depend on t), the step reuses the previous step's operator and its LU
    factors; the arithmetic, and so every byte of the result, is that of
    building and solving it afresh.
    """
    if not psi0.grid.compatible_with(config.grid):
        raise ValueError("psi0 must live on the configured grid")
    norm0 = psi0.norm()
    if abs(norm0 - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalised")
    grid = config.grid
    n_steps = config.n_steps
    x = grid.nodes()[1:-1]
    cache = {"nodes": x, "links": 0.5 * (x[:-1] + x[1:])}  # see _cn_step

    rows = []  # one per sample: the ObservableTrace fields in order
    previous, current = None, psi0.values
    for step in range(n_steps + 1):
        t = step * config.dt
        sampled = step % config.sample_stride == 0 or step == n_steps
        if sampled:
            obs = observables(WaveField(grid, current))
            if abs(obs.norm - norm0) > 1e-6:
                raise StabilityError(f"norm drifted to {obs.norm!r} at t={t!r}")
            rows.append([t, obs.norm, obs.mean_x, obs.width,
                         obs.fisher_spatial, np.nan])
        if step == n_steps:
            break
        nxt = np.zeros_like(current)
        nxt[1:-1] = _cn_step(current[1:-1], fields, t + 0.5 * config.dt,
                             config, cache)
        if sampled and step > 0:
            rows[-1][-1] = _hje_residual_triplet(
                grid, previous, current, nxt, config.dt, fields, t, config)
        previous, current = current, nxt

    final = WaveField(grid, current,
                      normalized=abs(grid.spacing
                                     * float((np.abs(current) ** 2).sum())
                                     - 1.0) <= 1e-10)
    return final, ObservableTrace(*np.array(rows).T)


# ---------------------------------------------------------------------------
# averaged Hamilton-Jacobi residual
# ---------------------------------------------------------------------------

def _reconcile_winding(action: np.ndarray, reference: np.ndarray,
                       ref_node: int, lam: float) -> np.ndarray:
    """Shift by whole phase windings so both actions agree at ref_node."""
    period = (2.0 / math.sqrt(lam)) * 2.0 * math.pi
    if not (np.isfinite(action[ref_node]) and np.isfinite(reference[ref_node])):
        return action
    k = round((action[ref_node] - reference[ref_node]) / period)
    return action - k * period


def _hje_residual_triplet(grid: Grid1D, psi_before: np.ndarray,
                          psi_at: np.ndarray, psi_after: np.ndarray,
                          dt: float, fields: GaugeField, t: float,
                          config: PropagatorConfig) -> float:
    """Residual integral [ dS/dt + (S' - qA/c)^2 / 2m + V ] P dx at one time."""
    lam = config.lam
    h = grid.spacing
    x = grid.nodes()
    p = np.abs(psi_at) ** 2
    s_before, s_mid, s_after = (_phase_action(psi, lam)
                                for psi in (psi_before, psi_at, psi_after))
    ref = int(np.argmax(np.where(np.isfinite(s_mid), p, -1.0)))
    s_before = _reconcile_winding(s_before, s_mid, ref, lam)
    s_after = _reconcile_winding(s_after, s_mid, ref, lam)
    ds_dt = (s_after - s_before) / (2.0 * dt)
    ds_dx = gradient(np.where(np.isfinite(s_mid), s_mid, 0.0), h)
    defined = (np.isfinite(s_mid) & np.isfinite(ds_dt))
    # a gradient touching an undefined neighbour is contaminated; drop it
    defined[1:] &= np.isfinite(s_mid[:-1])
    defined[:-1] &= np.isfinite(s_mid[1:])
    if not defined.any():
        raise PhaseUndefinedError("phase undefined on every node")
    a = fields.a_values(x, t)
    v = fields.v_values(x, t)
    drift = ds_dx - fields.charge * a / fields.light_speed
    integrand = np.where(
        defined, (ds_dt + drift ** 2 / (2.0 * config.mass) + v) * p, 0.0)
    return trapezoid(integrand, h)


def avg_hje_residual(snapshots: Sequence[WaveField], times: Sequence[float],
                     fields: GaugeField, config: PropagatorConfig
                     ) -> np.ndarray:
    """Residual series over a snapshot sequence (NaN at the two ends).

    Needs at least three uniformly spaced snapshots; the phase's time
    derivative is a centred difference between neighbouring snapshots with
    whole-winding reconciliation at the density maximum.
    """
    times, dt = _snapshot_times(snapshots, times)
    grid = snapshots[0].grid
    out = np.full(len(snapshots), np.nan)
    for k in range(1, len(snapshots) - 1):
        out[k] = _hje_residual_triplet(
            grid, snapshots[k - 1].values, snapshots[k].values,
            snapshots[k + 1].values, dt, fields, float(times[k]), config)
    return out


def _snapshot_times(snapshots: Sequence[WaveField], times: Sequence[float]
                    ) -> Tuple[np.ndarray, float]:
    """``times`` as an array, and their common step; at least three
    snapshots, one time each, uniformly spaced."""
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots")
    times = np.asarray(times, dtype=float)
    if len(times) != len(snapshots):
        raise ValueError("times must align with snapshots")
    steps = np.diff(times)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-30)):
        raise ValueError("snapshots must be uniformly spaced in time")
    return times, float(steps[0])


# ---------------------------------------------------------------------------
# gauge transformation and the dynamic quadratic form
# ---------------------------------------------------------------------------

def gauge_transform(psi: WaveField, fields: GaugeField,
                    chi: Callable[[np.ndarray, float], np.ndarray],
                    t: float, lam: float = 4.0
                    ) -> Tuple[WaveField, GaugeField]:
    """Apply the gauge transformation generated by chi at time t.

    Returns (psi', fields') with psi' = psi exp(i q sqrt(lambda) chi / 2c),
    A' = A + dchi/dx and V' = V - (q/c) dchi/dt, the combination leaving the
    dynamic quadratic form's integrand invariant.  The field modulus is
    untouched up to one rounding ulp per node.  Derivatives of chi are
    central differences with steps scaled to the argument.
    """
    q = fields.charge
    c = fields.light_speed
    x = psi.grid.nodes()
    phase = (q * math.sqrt(lam) / (2.0 * c)) * np.asarray(chi(x, t),
                                                          dtype=float)
    new_psi = WaveField(psi.grid, psi.values * np.exp(1j * phase))

    base_a, base_v = fields.A, fields.V

    def new_a(xs, ts):
        xs = np.asarray(xs, dtype=float)
        dx = _CHI_STEP * np.maximum(1.0, np.abs(xs))
        dchi_dx = (np.asarray(chi(xs + dx, ts)) - np.asarray(chi(xs - dx, ts))) \
            / (2.0 * dx)
        return np.asarray(base_a(xs, ts), dtype=float) + dchi_dx

    def new_v(xs, ts):
        xs = np.asarray(xs, dtype=float)
        dt_step = _CHI_STEP * max(1.0, abs(ts))
        dchi_dt = (np.asarray(chi(xs, ts + dt_step))
                   - np.asarray(chi(xs, ts - dt_step))) / (2.0 * dt_step)
        return np.asarray(base_v(xs, ts), dtype=float) - (q / c) * dchi_dt

    return new_psi, GaugeField(A=new_a, V=new_v, charge=q, light_speed=c)


@dataclass(frozen=True, eq=False)
class DynamicFormBreakdown:
    total: float
    time_term: float
    gradient_term: float
    potential_term: float


def dynamic_wave_functional(snapshots: Sequence[WaveField],
                            times: Sequence[float], fields: GaugeField,
                            config: PropagatorConfig,
                            return_terms: bool = False):
    """Space-time quadrature of the dynamic quadratic form

        2 * integral dx dt [ m i sqrt(lambda) (psi dpsi*/dt - psi* dpsi/dt)
                             + 2 |(d/dx - i q sqrt(lambda) A / 2c) psi|^2
                             + m lambda V |psi|^2 ].

    A diagnostic: its first variation vanishes on propagated solutions, and
    the integrand is pointwise invariant under :func:`gauge_transform`.
    Time derivatives are centred between snapshots, so the time quadrature
    runs over the interior snapshots.
    """
    times, dt = _snapshot_times(snapshots, times)
    grid = snapshots[0].grid
    x = grid.nodes()
    h = grid.spacing
    lam = config.lam
    m = config.mass
    gauge_coupling = fields.charge * math.sqrt(lam) / (2.0 * fields.light_speed)

    rows = []  # per interior snapshot: time, gradient and potential terms
    for k in range(1, len(snapshots) - 1):
        psi = snapshots[k].values
        dpsi_dt = (snapshots[k + 1].values - snapshots[k - 1].values) / (2 * dt)
        t = float(times[k])
        covariant = (gradient(psi, h)
                     - 1j * gauge_coupling * fields.a_values(x, t) * psi)
        time_term = (1j * m * math.sqrt(lam)
                     * (psi * np.conj(dpsi_dt) - np.conj(psi) * dpsi_dt)).real
        rows.append([trapezoid(time_term, h),
                     trapezoid(2.0 * np.abs(covariant) ** 2, h),
                     trapezoid(m * lam * fields.v_values(x, t)
                               * np.abs(psi) ** 2, h)])
    t_term, g_term, p_term = (2.0 * trapezoid(column, dt)
                              for column in np.array(rows).T)
    total = t_term + g_term + p_term
    if return_terms:
        return DynamicFormBreakdown(total=total, time_term=t_term,
                                    gradient_term=g_term,
                                    potential_term=p_term)
    return total
