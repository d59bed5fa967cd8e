"""Stationary grid functionals, Madelung transform, and the two solution routes.

For a normalised density P(x), an action S(x), a potential V(x) and trial
energy E, the robustness objective is

    F[P, S] = integral (P')^2 / P dx
              + lambda * integral [ (S')^2 + 2 m (V - E) ] P dx,

the spatial Fisher information plus the weighted average Hamilton-Jacobi
residual.  Writing the two real fields as one complex field
psi = sqrt(P) exp(i S sqrt(lambda) / 2) turns F into the quadratic form

    Q[psi] = integral 4 |psi'|^2 + 2 m lambda (V - E) |psi|^2 dx,

whose extrema solve the linear stationary wave equation
-psi'' + (m lambda / 2)(V - E) psi = 0.  With lambda = 4 / hbar^2 that is
the time-independent Schroedinger equation.  The module provides both
routes: a symmetric tridiagonal eigensolver for the linear form and a
projected L-BFGS minimiser for the nonlinear form, so each cross-checks
the other.

Discretisation: second-order central differences (first-order one-sided at
the two edge nodes), trapezoidal quadrature, Dirichlet-zero boundaries,
node exclusion below ``DENSITY_FLOOR`` in 1/P terms.  Default units
hbar = m = 1, lambda = 4.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError
from .grid import (DENSITY_FLOOR, Grid1D, ScalarField, WaveField, gradient,
                   gradient_adjoint, trapezoid, trapezoid_weights)

DEFAULT_HBAR = 1.0
DEFAULT_MASS = 1.0
LBFGS_MEMORY = 10  # curvature pairs kept by minimize_functional


@dataclass(frozen=True, eq=False)
class StationaryProblem:
    """Potential, trial energy, and physical constants of a stationary solve.

    ``lam`` left as None selects default units, lam = 4 / hbar^2, the value
    that ties the quadratic form to the physical energy scale.
    """

    potential: ScalarField
    energy: float
    mass: float = DEFAULT_MASS
    hbar: float = DEFAULT_HBAR
    lam: Optional[float] = None

    def __post_init__(self):
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.lam is None:
            object.__setattr__(self, "lam", 4.0 / self.hbar ** 2)
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    @property
    def grid(self) -> Grid1D:
        return self.potential.grid


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    density: ScalarField
    action: ScalarField
    value: float
    iterations: int
    converged: bool
    history: np.ndarray


@dataclass(frozen=True, eq=False)
class ShiftVerdict:
    eigenvalue_diff: float
    eigenfunction_diff: float
    passed: bool


# ---------------------------------------------------------------------------
# quadratures
# ---------------------------------------------------------------------------

def continuum_fisher(density: ScalarField, floor: float = DENSITY_FLOOR) -> float:
    """Trapezoidal quadrature of (P')^2 / P with nodes below ``floor`` excluded.

    The excluded nodes carry weight P < floor, so their true contribution is
    bounded by floor times the squared log-slope; skipping them removes the
    1/P singularity at density zeros.
    """
    if density.kind != "density":
        raise ValueError("continuum_fisher expects a density field")
    p = density.values
    h = density.grid.spacing
    mask = p >= floor
    if not mask.any():
        raise DomainError("all nodes fall below the density floor")
    dp = gradient(p, h)
    integrand = np.zeros_like(p)
    integrand[mask] = dp[mask] ** 2 / p[mask]
    return trapezoid(integrand, h)


def _require_shared_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if not g.compatible_with(f.grid):
            raise ValueError("fields must share one grid")
    return g


def hje_residual(density: ScalarField, action: ScalarField,
                 problem: StationaryProblem) -> float:
    """Density-weighted residual of the stationary Hamilton-Jacobi relation,

        integral [ (S')^2 + 2 m (V - E) ] P dx.

    Zero means the detector statistics are, on average, consistent with a
    classical orbit of energy E in the potential.
    """
    g = _require_shared_grid(density, action, problem.potential)
    h = g.spacing
    ds = gradient(action.values, h)
    integrand = (ds ** 2 + 2.0 * problem.mass
                 * (problem.potential.values - problem.energy)) * density.values
    finite = np.isfinite(integrand)
    if not finite.all():
        # action may carry NaN at undefined-phase nodes; they sit where the
        # density weight is below the floor
        integrand = np.where(finite, integrand, 0.0)
    return trapezoid(integrand, h)


def density_functional(density: ScalarField, action: ScalarField,
                       problem: StationaryProblem,
                       floor: float = DENSITY_FLOOR) -> float:
    """Robustness objective F = continuum_fisher + lambda * hje_residual."""
    return (continuum_fisher(density, floor=floor)
            + problem.lam * hje_residual(density, action, problem))


def wave_functional(psi: WaveField, problem: StationaryProblem) -> float:
    """Quadratic form Q = integral 4 |psi'|^2 + 2 m lambda (V - E)|psi|^2 dx.

    Equals ``density_functional`` after the polar substitution, and equals
    2 m lambda (<H> - E) for a normalised field in default units.
    """
    g = _require_shared_grid(psi, problem.potential)
    h = g.spacing
    dpsi = gradient(psi.values, h)
    integrand = (4.0 * np.abs(dpsi) ** 2
                 + 2.0 * problem.mass * problem.lam
                 * (problem.potential.values - problem.energy)
                 * np.abs(psi.values) ** 2)
    return trapezoid(integrand, h)


# ---------------------------------------------------------------------------
# Madelung transform
# ---------------------------------------------------------------------------

def madelung_join(density: ScalarField, action: ScalarField,
                  lam: float = 4.0) -> WaveField:
    """Complex field sqrt(P) exp(i S sqrt(lambda) / 2), nodewise.

    NaN action entries (undefined phase) are taken as phase zero; they can
    only occur where sqrt(P) is below the modulus floor anyway.
    """
    _require_shared_grid(density, action)
    phase = 0.5 * math.sqrt(lam) * np.where(np.isfinite(action.values),
                                            action.values, 0.0)
    values = np.sqrt(density.values) * np.exp(1j * phase)
    return WaveField(density.grid, values,
                     normalized=abs(density.grid.spacing
                                    * float((np.abs(values) ** 2).sum()) - 1.0) <= 1e-10)


def madelung_split(psi: WaveField, lam: float = 4.0,
                   floor: float = DENSITY_FLOOR
                   ) -> Tuple[ScalarField, ScalarField]:
    """Split psi into (density |psi|^2, action (2/sqrt(lambda)) arg psi).

    The phase is unwrapped left to right over the nodes with modulus >=
    ``floor`` (jumps beyond pi are folded); nodes below the floor get NaN
    action, marking the phase undefined there.  The action is recovered up
    to one global additive constant, the density exactly.  The field must
    be normalised (the split density carries the density contract).
    """
    if abs(psi.norm() - 1.0) > 1e-10:
        raise ValueError("madelung_split needs a normalised wave field")
    mod = np.abs(psi.values)
    p = mod ** 2
    action = np.full(psi.grid.n_points, np.nan)
    defined = np.where(mod >= floor)[0]
    if defined.size:
        phases = np.unwrap(np.angle(psi.values[defined]))
        action[defined] = (2.0 / math.sqrt(lam)) * phases
    density = ScalarField(psi.grid, p, kind="density")
    return density, ScalarField(psi.grid, action, kind="action")


# ---------------------------------------------------------------------------
# linear route: tridiagonal eigensolver
# ---------------------------------------------------------------------------

def solve_eigen(problem: StationaryProblem, grid: Grid1D,
                n_states: int) -> List[Tuple[float, WaveField]]:
    """Lowest eigenpairs of -(2/(m lambda)) psi'' + V psi = E psi.

    Dirichlet-zero boundaries; second-order central second difference on
    interior nodes gives a real symmetric tridiagonal matrix, solved by
    bisection plus inverse iteration.  Eigenfunctions are normalised to
    h * sum |psi|^2 = 1 and signed positive at their first interior
    antinode.  ``problem.energy`` plays no role here: the eigenvalue is the
    energy.
    """
    if not problem.grid.compatible_with(grid):
        raise ValueError("grid must match the potential's grid")
    n = grid.n_points
    if not 1 <= n_states <= n - 2:
        raise ValueError("need 1 <= n_states <= n_points - 2")
    h = grid.spacing
    coeff = 2.0 / (problem.mass * problem.lam)
    diag = 2.0 * coeff / h ** 2 + problem.potential.values[1:-1]
    off = np.full(n - 3, -coeff / h ** 2)
    try:
        energies, vectors = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, n_states - 1))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc

    states = []
    for k in range(n_states):
        full = np.zeros(n)
        full[1:-1] = vectors[:, k]
        full /= math.sqrt(h * float((full ** 2).sum()))
        full = _fix_sign(full)
        states.append((float(energies[k]),
                       WaveField(grid, full.astype(complex), normalized=True)))
    return states


def _fix_sign(values: np.ndarray) -> np.ndarray:
    """Flip sign so the first interior antinode (local max of |psi|) is > 0."""
    mag = np.abs(values)
    peak = float(mag.max())
    idx = int(np.argmax(mag))
    for i in range(1, values.size - 1):
        if mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1] and mag[i] > 1e-8 * peak:
            idx = i
            break
    return -values if values[idx] < 0 else values


def shift_covariance_check(problem: StationaryProblem, grid: Grid1D,
                           shift: float, n_states: int = 3,
                           tol: float = 1e-10) -> ShiftVerdict:
    """Solve the problem again with the potential carried to a grid shifted
    by a whole number of spacings; spectra must coincide and eigenfunctions
    must be nodal translates.
    """
    h = grid.spacing
    steps = shift / h
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("shift must be an integer multiple of the spacing")
    base = solve_eigen(problem, grid, n_states)
    shifted_grid = grid.shifted(shift)
    shifted_problem = StationaryProblem(
        potential=ScalarField(shifted_grid, problem.potential.values,
                              kind="potential"),
        energy=problem.energy, mass=problem.mass, hbar=problem.hbar,
        lam=problem.lam)
    moved = solve_eigen(shifted_problem, shifted_grid, n_states)
    ediff = max(abs(e1 - e2) for (e1, _), (e2, _) in zip(base, moved))
    fdiff = max(float(np.max(np.abs(w1.values - w2.values)))
                for (_, w1), (_, w2) in zip(base, moved))
    return ShiftVerdict(eigenvalue_diff=ediff, eigenfunction_diff=fdiff,
                        passed=(ediff <= tol and fdiff <= tol))


# ---------------------------------------------------------------------------
# nonlinear route: projected L-BFGS descent on the discrete objective
# ---------------------------------------------------------------------------

def _discrete_objective_and_gradient(p, s, v, energy, mass, lam, h, w, floor):
    """Value and exact nodewise gradient of the discretised objective.

    The value reproduces density_functional/hje_residual applied to fields
    holding (p, s); the gradient is the algebraic derivative of that exact
    expression (trapezoid weights w, derivative stencil of
    :func:`grid.gradient` and its adjoint), so central finite differences of
    the value match it to rounding.
    """
    gp, gs = gradient(np.array((p, s)), h)
    mask = p >= floor
    # P'/P, zero at the nodes below the floor (they drop out of 1/P terms)
    log_slope = np.where(mask, gp, 0.0) / np.where(mask, p, 1.0)
    coeff = gs * gs + 2.0 * mass * (v - energy)
    value = float(w @ (gp * log_slope + lam * coeff * p))
    back_p, grad_s = gradient_adjoint(
        np.array((2.0 * w * log_slope, (2.0 * lam) * w * gs * p)), h)
    grad_p = back_p + w * (lam * coeff - log_slope * log_slope)
    return value, grad_p, grad_s


def functional_gradient(density: ScalarField, action: ScalarField,
                        problem: StationaryProblem,
                        floor: float = DENSITY_FLOOR):
    """Nodewise gradient of the discrete objective wrt density and action."""
    g = _require_shared_grid(density, action, problem.potential)
    w = trapezoid_weights(g.n_points, g.spacing)
    _, grad_p, grad_s = _discrete_objective_and_gradient(
        density.values, action.values, problem.potential.values,
        problem.energy, problem.mass, problem.lam, g.spacing, w, floor)
    return grad_p, grad_s


def _lbfgs_direction(grad, pairs):
    """-H grad by the L-BFGS two-loop recursion (Nocedal & Wright, alg. 7.4).

    ``pairs`` holds (step, gradient change, 1 / their inner product), oldest
    first.  The initial inverse Hessian is gamma times the identity, with
    gamma = (step . change) / (change . change) of the newest pair.
    """
    _, dy, rho = pairs[-1]
    gamma = 1.0 / (rho * float(dy @ dy))
    q = -grad
    alphas = []
    for ds, dy, rho in reversed(pairs):
        a = rho * float(ds @ q)
        q -= a * dy
        alphas.append(a)
    q *= gamma
    for (ds, dy, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(dy @ q)) * ds
    return q


def minimize_functional(problem: StationaryProblem, grid: Grid1D,
                        init: Tuple[ScalarField, ScalarField],
                        max_iter: int = 200_000, tol: float = 1e-15,
                        floor: float = DENSITY_FLOOR) -> MinimizeResult:
    """Projected L-BFGS descent on the discrete robustness objective.

    Each step moves (P, S) along a search direction, clamps P to the floor,
    renormalises h * sum P = 1 and clamps again, so every iterate keeps all
    nodes in the 1/P terms (the returned density is renormalised once more,
    exactly); S is unconstrained.  The direction is the
    limited-memory quasi-Newton one built from the last ``LBFGS_MEMORY``
    steps (Liu & Nocedal 1989).  The step length starts at 1, is capped by
    a ratio test that keeps P interior (at most 90% of the smallest
    P/|direction| ratio among shrinking nodes) and is halved until the
    objective strictly decreases, so the returned value history is
    monotone nonincreasing.

    When the quasi-Newton direction is not a descent direction, or no
    halving of it decreases the objective, the memory is dropped and the
    same iteration retries along the gradient, scaled by the spectral
    (Barzilai-Borwein) step length of the newest pair.  Terminates when
    the relative decrease falls below ``tol``, when that gradient step
    finds no float-representable decrease (a stationary point of the
    projected problem), or at ``max_iter``; only the last case reports
    ``converged=False`` with the best iterate.
    """
    density0, action0 = init
    g = _require_shared_grid(density0, action0, problem.potential)
    if not g.compatible_with(grid):
        raise ValueError("init fields must live on the requested grid")
    n = g.n_points
    h = g.spacing
    w = trapezoid_weights(n, h)
    v = problem.potential.values

    def project(p):
        # the second clamp keeps renormalisation from leaving a clamped node
        # just below the floor: there it would drop out of the 1/P terms,
        # and the objective would jump up at any step that lifts it back
        p = np.maximum(p, floor)
        return np.maximum(p / (h * p.sum()), floor)

    def evaluate(x):
        value, grad_p, grad_s = _discrete_objective_and_gradient(
            x[:n], x[n:], v, problem.energy, problem.mass, problem.lam, h, w,
            floor)
        return value, np.concatenate((grad_p, grad_s))

    def descend(x, value, direction):
        """First halving of the capped step that lowers the objective."""
        p, dp = x[:n], direction[:n]
        step = 1.0
        shrinking = (dp < 0) & (p > floor)
        if shrinking.any():
            step = min(step, 0.9 * float(np.min(p[shrinking]
                                                / -dp[shrinking])))
        for _ in range(100):
            x_new = x + step * direction
            x_new[:n] = project(x_new[:n])
            value_new, grad_new = evaluate(x_new)
            if value_new < value:
                return x_new, value_new, grad_new
            step *= 0.5
        return None

    x = np.concatenate((project(density0.values), action0.values))
    value, grad = evaluate(x)
    history = [value]
    pairs = deque(maxlen=LBFGS_MEMORY)
    alpha = 1e-4
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        found = None
        if pairs:
            direction = _lbfgs_direction(grad, pairs)
            if float(direction @ grad) < 0:
                found = descend(x, value, direction)
        if found is None:
            pairs.clear()
            found = descend(x, value, -alpha * grad)
        if found is None:
            converged = True  # no representable descent direction remains
            break
        x_new, value_new, grad_new = found
        ds = x_new - x
        dy = grad_new - grad
        curvature = float(ds @ dy)
        if curvature > 0 and math.isfinite(curvature):
            pairs.append((ds, dy, 1.0 / curvature))
            alpha = min(max(float(ds @ ds) / curvature, 1e-12), 1e3)
        decrease = value - value_new
        x, value, grad = x_new, value_new, grad_new
        history.append(value)
        if decrease < tol * max(1.0, abs(value)):
            converged = True
            break
    # the second clamp in project() can add up to (x_max - x_min) * floor of
    # mass; the returned density is renormalised exactly
    density = x[:n] / (h * x[:n].sum())
    return MinimizeResult(
        density=ScalarField(g, density, kind="density"),
        action=ScalarField(g, x[n:], kind="action"),
        value=value, iterations=iterations, converged=converged,
        history=np.array(history))
