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
routes: a symmetric tridiagonal eigensolver for the linear form and an
L-BFGS minimiser for the nonlinear form, so each cross-checks the other.

Discretisation: second-order central differences (first-order one-sided at
the two edge nodes), trapezoidal quadrature, Dirichlet-zero boundaries,
node exclusion below ``DENSITY_FLOOR`` in 1/P terms, phase undefined
below ``MODULUS_FLOOR``.  These floors and ``SHIFT_TOL`` are fixed module
constants, not parameters.  The two routes share one discretisation: the
eigensolver's 3-point second difference with walls at zero, which the
minimiser reaches as the link form 4/h * sum (a_{i+1} - a_i)^2 of the
Fisher term in the amplitude a = sqrt(P), zero on the walls.  Default
units hbar = m = 1, lambda = 4.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .grid import (DENSITY_FLOOR, MODULUS_FLOOR, Grid1D, ScalarField,
                   WaveField, _dot, gradient, gradient_adjoint, kinetic_bands,
                   trapezoid, trapezoid_weights)

DEFAULT_HBAR = 1.0
DEFAULT_MASS = 1.0
LBFGS_MEMORY = 10  # curvature pairs kept by minimize_functional
SHIFT_TOL = 1e-10  # largest gap shift_covariance_check lets pass


@dataclass(frozen=True, eq=False)
class StationaryProblem:
    """Potential, trial energy, and physical constants of a stationary solve.

    ``lam`` left as None is 4 / hbar^2.  Both routes read only lambda and
    m, so any other ``lam`` is the problem at hbar = 2 / sqrt(lam).
    """

    potential: ScalarField
    energy: float
    mass: float = DEFAULT_MASS
    hbar: float = DEFAULT_HBAR
    lam: Optional[float] = None

    def __post_init__(self):
        if not (self.mass > 0 and self.hbar > 0):
            raise ValueError("mass and hbar must be positive")
        if self.lam is None:
            object.__setattr__(self, "lam", 4.0 / self.hbar ** 2)
        if not self.lam > 0:
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

def continuum_fisher(density: ScalarField) -> float:
    """Trapezoidal quadrature of (P')^2 / P with nodes below ``DENSITY_FLOOR``
    excluded.

    The excluded nodes carry weight P < DENSITY_FLOOR, so their true
    contribution is bounded by the floor times the squared log-slope;
    skipping them removes the 1/P singularity at density zeros.
    """
    if density.kind != "density":
        raise ValueError("continuum_fisher expects a density field")
    p = density.values
    h = density.grid.spacing
    mask = p >= DENSITY_FLOOR
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
                       problem: StationaryProblem) -> float:
    """Robustness objective F = continuum_fisher + lambda * hje_residual."""
    return (continuum_fisher(density)
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


def madelung_split(psi: WaveField, lam: float = 4.0
                   ) -> Tuple[ScalarField, ScalarField]:
    """Split psi into (density |psi|^2, action (2/sqrt(lambda)) arg psi).

    The phase is unwrapped left to right over the nodes with modulus >=
    ``MODULUS_FLOOR`` (jumps beyond pi are folded); the other nodes get NaN
    action, marking the phase undefined there.  The action is recovered up
    to one global additive constant, the density exactly.  The field must
    be normalised (the split density carries the density contract).
    """
    if abs(psi.norm() - 1.0) > 1e-10:
        raise ValueError("madelung_split needs a normalised wave field")
    action = _phase_action(psi.values, lam)
    return (ScalarField(psi.grid, np.abs(psi.values) ** 2, kind="density"),
            ScalarField(psi.grid, action, kind="action"))


def _phase_action(values: np.ndarray, lam: float) -> np.ndarray:
    """The action (2/sqrt(lambda)) arg psi of the node values ``values``,
    unwrapped left to right over the nodes with modulus >= ``MODULUS_FLOOR``
    and NaN at the others; any norm will do."""
    action = np.full(values.shape, np.nan)
    defined = np.abs(values) >= MODULUS_FLOOR
    if defined.any():
        phases = np.unwrap(np.angle(values[defined]))
        action[defined] = (2.0 / math.sqrt(lam)) * phases
    return action


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
    _, diag, off = kinetic_bands(problem.mass, problem.lam, h,
                                 problem.potential.values[1:-1])
    energies, vectors = _lowest_eigenpairs(diag, np.full(n - 3, off),
                                           n_states)

    states = []
    for k in range(n_states):
        full = np.zeros(n)
        full[1:-1] = vectors[:, k]
        full /= math.sqrt(h * float((full ** 2).sum()))
        full = _fix_sign(full)
        states.append((float(energies[k]),
                       WaveField(grid, full, normalized=True)))
    return states


def _lowest_eigenpairs(diag: np.ndarray, off: np.ndarray, count: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest eigenvalues, ascending, and eigenvectors (the
    columns) of the symmetric tridiagonal matrix with bands ``diag`` and
    ``off``.

    These are the LAPACK calls, in order and with the arguments, of
    ``scipy.linalg.eigh_tridiagonal(diag, off, select="i",
    select_range=(0, count - 1))``: bisection by ``dstebz`` in block order,
    inverse iteration by ``dstein``, then a sort by eigenvalue.  A 1x1
    matrix takes no call.  Bands that are not finite raise ValueError, as
    there; a LAPACK failure raises ConvergenceError.
    """
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    if diag.size == 1:
        return np.array([diag[0]]), np.array([[1.0]])
    # imported at the call, not with the module, so that only the grid
    # solvers load scipy (see _lapack)
    from ._lapack import dstebz, dstein
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, 1, count,
                                        0.0, "B")
    if info == 0:
        w = w[:m]
        vectors, info = dstein(diag, off, w, iblock, isplit)
    if info != 0:
        raise ConvergenceError("tridiagonal eigensolve failed: LAPACK "
                               f"info={info}")
    order = np.argsort(w)
    return w[order], vectors[:, order]


def _fix_sign(values: np.ndarray) -> np.ndarray:
    """Flip sign so the first interior antinode (local max of |psi| above
    1e-8 of the peak; the peak itself if none) is > 0."""
    mag = np.abs(values)
    inner = mag[1:-1]
    antinode = ((inner >= mag[:-2]) & (inner >= mag[2:])
                & (inner > 1e-8 * mag.max()))
    first = int(np.argmax(antinode))
    idx = first + 1 if antinode[first] else int(np.argmax(mag))
    return -values if values[idx] < 0 else values


def shift_covariance_check(problem: StationaryProblem, grid: Grid1D,
                           shift: float, n_states: int = 3) -> ShiftVerdict:
    """Solve the problem again with the potential carried to a grid shifted
    by a whole number of spacings; spectra must coincide and eigenfunctions
    must be nodal translates, both within ``SHIFT_TOL``.
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
                        passed=(ediff <= SHIFT_TOL and fdiff <= SHIFT_TOL))


# ---------------------------------------------------------------------------
# nonlinear route: L-BFGS descent on the link-form objective
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
    value = float(_dot(w, gp * log_slope + lam * coeff * p))
    back_p, grad_s = gradient_adjoint(
        np.array((2.0 * w * log_slope, (2.0 * lam) * w * gs * p)), h)
    grad_p = back_p + w * (lam * coeff - log_slope * log_slope)
    return value, grad_p, grad_s


def functional_gradient(density: ScalarField, action: ScalarField,
                        problem: StationaryProblem):
    """Nodewise gradient of the discrete objective wrt density and action."""
    g = _require_shared_grid(density, action, problem.potential)
    w = trapezoid_weights(g.n_points, g.spacing)
    _, grad_p, grad_s = _discrete_objective_and_gradient(
        density.values, action.values, problem.potential.values,
        problem.energy, problem.mass, problem.lam, g.spacing, w,
        DENSITY_FLOOR)
    return grad_p, grad_s


def _lbfgs_direction(grad, pairs, amplitude, solve_m, gamma):
    """-H grad by the L-BFGS two-loop recursion (Nocedal & Wright, alg. 7.4).

    ``pairs`` holds (step, gradient change, 1 / their inner product), oldest
    first, and may be empty.  The initial inverse Hessian is ``solve_m``
    (M^-1) on the amplitude block, the first ``amplitude.size`` entries,
    and gamma times the identity on the action block.
    """
    n = amplitude.size
    q = -grad
    alphas = []
    for ds, dy, rho in reversed(pairs):
        a = rho * float(_dot(ds, q))
        q -= a * dy
        alphas.append(a)
    # M^-1 acts on the part of q tangent to the sphere h * sum a^2 = 1 at
    # the iterate (Knyazev's preconditioned residual).  Where the potential
    # dwarfs the kinetic term, M^-1 q itself lies almost along the iterate,
    # and the renormalisation after the step cancels it.
    q_a = q[:n]
    q_a -= (float(_dot(amplitude, q_a))
            / float(_dot(amplitude, amplitude))) * amplitude
    q[:n] = solve_m(q_a)
    q[n:] *= gamma
    for (ds, dy, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(_dot(dy, q))) * ds
    return q


@np.errstate(over="ignore", invalid="ignore")  # such values raise, below
def minimize_functional(problem: StationaryProblem, grid: Grid1D,
                        init: Tuple[ScalarField, ScalarField],
                        max_iter: int = 200_000, tol: float = 1e-15
                        ) -> MinimizeResult:
    """L-BFGS descent on the link form of the robustness objective.

    The descent runs in the amplitude a = sqrt(P), held at a = 0 on both
    walls as in ``solve_eigen``, and the action S.  The Fisher term is the
    link form 4/h * sum (a_{i+1} - a_i)^2 of 4 integral (a')^2; the
    lambda-term is ``_discrete_objective_and_gradient`` at P = a^2 with
    every node out of its 1/P terms, lambda * sum w [(S')^2 + 2 m (V - E)] P,
    whose gradient in a is 2 a times its gradient in P.  At S = 0 the
    objective is 2 m lambda h * a^T (H - E) a, with H the matrix
    ``solve_eigen`` factors, so at its eigen energy the optimum is about 0
    and the minimiser's density is the eigensolver's.

    Each step moves (a, S) along a search direction and rescales a to
    h * sum a^2 = 1; P = a^2 needs no positivity constraint.  The returned
    density is a^2, renormalised once more, exactly.  The direction is the
    limited-memory quasi-Newton one built from the last ``LBFGS_MEMORY``
    steps (Liu & Nocedal 1989).  Its initial inverse Hessian (Nocedal &
    Wright §7.2) is M^-1 on the amplitude, where M = 4 m lambda h
    (H - min V) over the interior nodes is the objective's Hessian in a at
    E = min V, so the iteration count does not grow with the grid
    (Knyazev 2001); on the action it is the spectral (Barzilai-Borwein)
    scalar of the newest pair.
    The step length starts at 1 and is halved until the objective strictly
    decreases, so the returned value history is monotone nonincreasing.

    When the quasi-Newton direction is not a descent direction, or no
    halving of it decreases the objective, the memory is dropped and the
    same iteration retries along the initial matrix's own direction:
    -M^-1 g on the amplitude, g its gradient projected onto the sphere, and
    the scaled gradient on the action.  Terminates when one iteration
    lowers the objective by less than ``tol * max(1, |F|)`` with F the new
    value (so the test is absolute while |F| < 1, as at the CLI defaults,
    and relative above), when that fallback step finds no
    float-representable decrease (a stationary point on the sphere), or at
    ``max_iter``; only the last case reports ``converged=False`` with the
    best iterate.  An objective, gradient or search direction that is not
    finite raises ConvergenceError, with no floating-point warning.
    """
    density0, action0 = init
    g = _require_shared_grid(density0, action0, problem.potential)
    if not g.compatible_with(grid):
        raise ValueError("init fields must live on the requested grid")
    n = g.n_points
    h = g.spacing
    w = trapezoid_weights(n, h)
    v = problem.potential.values
    # No shift is needed: the Dirichlet kinetic term alone makes H - min V
    # positive definite.  The two wall rows are unit rows with no coupling,
    # which keeps a direction's wall entries at zero and leaves LAPACK an
    # off-diagonal to take even with one interior node.  dpttrf/dpttrs call
    # no BLAS.
    from ._lapack import dpttrf, dpttrs  # at the call, as in the eigensolve
    inner = v[1:-1]
    _, diag, off = kinetic_bands(problem.mass, problem.lam, h,
                                 inner - inner.min())
    scale = 4.0 * problem.mass * problem.lam * h
    factor_d, factor_e, _ = dpttrf(
        np.pad(scale * diag, 1, constant_values=1.0),
        np.pad(np.full(n - 3, scale * off), 1))

    def solve_m(b):
        return dpttrs(factor_d, factor_e, b)[0]

    def project(a):
        a[0] = a[-1] = 0.0
        return a / math.sqrt(h * float(_dot(a, a)))

    def evaluate(x):
        a = x[:n]
        value, grad_p, grad_s = _discrete_objective_and_gradient(
            a * a, x[n:], v, problem.energy, problem.mass, problem.lam, h, w,
            math.inf)
        da = np.diff(a)
        grad_a = 2.0 * a * grad_p
        grad_a[:-1] -= (8.0 / h) * da
        grad_a[1:] += (8.0 / h) * da
        grad_a[0] = grad_a[-1] = 0.0
        return (value + (4.0 / h) * float(_dot(da, da)),
                np.concatenate((grad_a, grad_s)))

    def finite(value, grad):  # a NaN never reads as a decrease
        if math.isfinite(value) and np.isfinite(grad).all():
            return value, grad
        raise ConvergenceError(f"objective {value!r} or its gradient is "
                               "not finite")

    def descend(x, value, direction):
        """First halving of the unit step that lowers the objective."""
        if not np.isfinite(direction).all():  # it would find no decrease
            raise ConvergenceError("search direction is not finite")
        step = 1.0
        for _ in range(100):
            x_new = x + step * direction
            x_new[:n] = project(x_new[:n])
            value_new, grad_new = evaluate(x_new)
            if value_new < value:
                return (x_new, *finite(value_new, grad_new))
            step *= 0.5
        return None

    x = np.concatenate((project(np.sqrt(density0.values)), action0.values))
    value, grad = finite(*evaluate(x))
    history = [value]
    pairs = deque(maxlen=LBFGS_MEMORY)
    alpha = 1e-4
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        found = None
        if pairs:
            direction = _lbfgs_direction(grad, pairs, x[:n], solve_m, alpha)
            if float(_dot(direction, grad)) < 0:
                found = descend(x, value, direction)
        if found is None:
            pairs.clear()
            found = descend(x, value,
                            _lbfgs_direction(grad, (), x[:n], solve_m, alpha))
        if found is None:
            converged = True  # no representable descent direction remains
            break
        x_new, value_new, grad_new = found
        ds = x_new - x
        dy = grad_new - grad
        curvature = float(_dot(ds, dy))
        if curvature > 0 and math.isfinite(curvature):
            pairs.append((ds, dy, 1.0 / curvature))
            alpha = min(max(float(_dot(ds, ds)) / curvature, 1e-12), 1e3)
        decrease = value - value_new
        x, value, grad = x_new, value_new, grad_new
        history.append(value)
        if decrease < tol * max(1.0, abs(value)):
            converged = True
            break
    density = x[:n] * x[:n]
    density /= h * density.sum()
    return MinimizeResult(
        density=ScalarField(g, density, kind="density"),
        action=ScalarField(g, x[n:], kind="action"),
        value=value, iterations=iterations, converged=converged,
        history=np.array(history))
