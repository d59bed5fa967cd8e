"""Two-router pair experiment: statistics, correlation models, simulation.

A source emits signal pairs; two routers with laboratory directions a1, a2
steer each signal to a +1 or -1 detector, producing events (x, y) in
{-1, +1}^2.  The joint table of such dichotomic pairs decomposes exactly
into moments (1, E1, E2, E12); with fair single-detector marginals only the
pair correlation E12 survives:  P(x, y) = (1 + x y E12) / 4.

Requiring the per-trial Fisher information of that family to be a positive
constant I_F forces (E12')^2 = I_F (1 - E12^2), whose solutions are the
cosine curves E12(theta) = cos(K theta + phi) with integer K = sqrt(I_F).
K = 1, phi = pi is the perfectly anticorrelated (singlet) member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from . import rng
from .errors import BranchError, EmptyDataError, InvalidModelError
from .inference import OutcomeTable

PAIR_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

UNIT_TOL = 1e-12


def _check_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return v


def angle_between(a1, a2) -> float:
    """Angle from the inner product, clamped against rounding past +-1."""
    return math.acos(min(1.0, max(-1.0, float(np.dot(a1, a2)))))


@dataclass(frozen=True, eq=False)
class RouterSetting:
    """Laboratory-frame unit directions of the two routers."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a1", _check_unit(self.a1, "a1"))
        object.__setattr__(self, "a2", _check_unit(self.a2, "a2"))

    @property
    def theta(self) -> float:
        return angle_between(self.a1, self.a2)


@dataclass(frozen=True)
class PairCounts:
    """Coincidence tallies n_xy for the four pair outcomes."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        if min(self.n_pp, self.n_pm, self.n_mp, self.n_mm) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    def correlation(self) -> float:
        return (self.n_pp + self.n_mm - self.n_pm - self.n_mp) / self.total

    def mean_x(self) -> float:
        return (self.n_pp + self.n_pm - self.n_mp - self.n_mm) / self.total

    def mean_y(self) -> float:
        return (self.n_pp - self.n_pm + self.n_mp - self.n_mm) / self.total


@dataclass(frozen=True)
class Decomposition:
    """Moments (e0, e1, e2, e12) of a dichotomic pair table."""

    e0: float
    e1: float
    e2: float
    e12: float

    def __post_init__(self):
        if abs(self.e0 - 1.0) > 1e-12:
            raise ValueError("e0 of a normalised table must be 1")
        for name in ("e1", "e2", "e12"):
            if abs(getattr(self, name)) > 1.0 + 1e-9:
                raise ValueError(f"|{name}| must not exceed 1")


@dataclass(frozen=True, eq=False)
class EventStatistics:
    mean_x: float
    mean_y: float
    correlation: float
    counts: PairCounts


@dataclass(frozen=True)
class CorrelationModel:
    """Constant-Fisher correlation family E12(theta) = cos(K theta + phi).

    kind 'singlet' fixes (K, phi) = (1, pi): E12 = -a1.a2.  kind
    'triplet_z0' replaces the inner product by the sign-flipped metric
    (+, -, +); for coplanar x-z router directions it reduces to
    E12(theta) = cos(theta).  kind 'general' admits any integer K >= 1 and
    phi in {0, pi} (the parity of E12 in the inner product excludes other
    phases; K = 0 would describe a table blind to the router setting and is
    rejected).
    """

    kind: str
    K: int = 1
    phi: float = 0.0
    metric: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("singlet", "triplet_z0", "general"):
            raise InvalidModelError(f"unknown model kind {self.kind!r}")
        if int(self.K) != self.K or self.K < 1:
            raise InvalidModelError("K must be an integer >= 1")
        if not (abs(self.phi) <= 1e-12 or abs(self.phi - math.pi) <= 1e-12):
            raise InvalidModelError("phi must be 0 or pi")

    @classmethod
    def singlet(cls) -> "CorrelationModel":
        return cls(kind="singlet", K=1, phi=math.pi)

    @classmethod
    def triplet_z0(cls) -> "CorrelationModel":
        return cls(kind="triplet_z0", K=1, phi=0.0, metric=(1.0, -1.0, 1.0))

    @classmethod
    def general(cls, K: int, phi: float) -> "CorrelationModel":
        return cls(kind="general", K=K, phi=phi)

    def correlation_vs_angle(self, theta: float) -> float:
        if self.kind == "singlet":
            return -math.cos(theta)
        # triplet_z0 carries the coplanar convention cos(theta); 'general'
        # evaluates the cosine family directly.
        return math.cos(self.K * theta + self.phi)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def accumulate_statistics(events: Iterable[Tuple[int, int]]) -> EventStatistics:
    """Averages, pair correlation, and coincidence tallies of (x, y) events."""
    ev = np.asarray(list(events) if not isinstance(events, np.ndarray) else events)
    if ev.size == 0:
        raise EmptyDataError("no events")
    ev = ev.reshape(-1, 2)
    if not np.all(np.isin(ev, (-1, 1))):
        raise ValueError("events must take values in {-1, +1}")
    x = ev[:, 0].astype(float)
    y = ev[:, 1].astype(float)
    n = ev.shape[0]
    counts = PairCounts(
        n_pp=int(np.sum((ev[:, 0] == 1) & (ev[:, 1] == 1))),
        n_pm=int(np.sum((ev[:, 0] == 1) & (ev[:, 1] == -1))),
        n_mp=int(np.sum((ev[:, 0] == -1) & (ev[:, 1] == 1))),
        n_mm=int(np.sum((ev[:, 0] == -1) & (ev[:, 1] == -1))),
    )
    return EventStatistics(mean_x=float(x.sum() / n), mean_y=float(y.sum() / n),
                           correlation=float((x * y).sum() / n), counts=counts)


def decompose(table: OutcomeTable) -> Decomposition:
    """Moments of a 4-outcome dichotomic pair table.

    The expansion is exact: :func:`recompose` of the result reproduces the
    input probabilities to within a couple of rounding ulps.
    """
    if set(table.outcomes) != set(PAIR_OUTCOMES):
        raise ValueError("table must cover the four outcomes (+-1, +-1)")
    e0 = e1 = e2 = e12 = 0.0
    for (x, y) in PAIR_OUTCOMES:
        p = table.prob_of((x, y))
        e0 += p
        e1 += x * p
        e2 += y * p
        e12 += x * y * p
    return Decomposition(e0=e0, e1=e1, e2=e2, e12=e12)


def recompose(dec: Decomposition) -> OutcomeTable:
    """Pair table with the given moments: P(x,y) = (e0 + x e1 + y e2 + xy e12)/4."""
    probs = tuple((dec.e0 + x * dec.e1 + y * dec.e2 + x * y * dec.e12) / 4
                  for (x, y) in PAIR_OUTCOMES)
    return OutcomeTable(outcomes=PAIR_OUTCOMES, probs=probs)


def pair_probabilities(e12):
    """The four probabilities (1 + xy E12)/4 in PAIR_OUTCOMES order.

    ``e12`` is a float or an array; for an array each probability is an
    array of its shape, equal element for element to the scalar call.  The
    unlike-sign entries are computed as 0.5 - p_like, which makes both
    single-detector marginals and the total sum land exactly on 0.5 and 1.
    """
    magnitude = np.abs(e12)
    if np.any(magnitude > 1.0):
        worst = float(np.max(magnitude[magnitude > 1.0]))
        raise InvalidModelError(f"|E12| = {worst!r} exceeds 1")
    p_like = (1.0 + e12) / 4.0
    p_unlike = 0.5 - p_like
    return (p_like, p_unlike, p_unlike, p_like)


def pair_family(model: CorrelationModel):
    """Generator theta -> pair probabilities for the model's cosine curve."""
    def generator(theta: np.ndarray):
        return pair_probabilities(model.correlation_vs_angle(float(theta[0])))
    return generator


def pair_table(theta: float, model: CorrelationModel) -> OutcomeTable:
    """Joint table P(x, y) = (1 + x y E12(theta)) / 4 with fair marginals."""
    return OutcomeTable.from_generator(pair_family(model), [theta],
                                       PAIR_OUTCOMES)


def pair_table_from_correlation(e12: float) -> OutcomeTable:
    """Joint table for an explicitly supplied pair correlation value."""
    return OutcomeTable(outcomes=PAIR_OUTCOMES, probs=pair_probabilities(e12))


def model_correlation(setting: RouterSetting, model: CorrelationModel) -> float:
    """Pair correlation for router directions under the model.

    singlet     -a1 . a2
    triplet_z0  +a1x a2x - a1y a2y + a1z a2z
    general     cos(K arccos(a1 . a2) + phi)
    """
    if model.kind == "singlet":
        value = -float(np.dot(setting.a1, setting.a2))
    elif model.kind == "triplet_z0":
        value = float(np.dot(setting.a1 * np.asarray(model.metric), setting.a2))
    else:
        value = math.cos(model.K * setting.theta + model.phi)
    return min(1.0, max(-1.0, value))


def solve_robust_ode(fisher_info: float, phi: float, theta_grid,
                     max_step: float = 1e-3) -> np.ndarray:
    """Integrate (E')^2 = I_F (1 - E^2) from E(0) = cos(phi) along the grid.

    The square-root form is sign-ambiguous at the turning points |E| = 1, so
    the integrator advances the equivalent smooth system (E, W = E') with
    W' = -I_F E by classical fourth-order steps of size <= ``max_step`` and
    projects W back onto the constraint W^2 = I_F (1 - E^2) after each step,
    keeping the branch sign continuous through the turnings.  The initial
    derivative is the branch W(0) = -sqrt(I_F) sin(phi).
    """
    if not fisher_info > 0:
        raise ValueError("fisher_info must be positive (a constant table "
                         "carries no dependence on the setting)")
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta_grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("theta_grid must be increasing and nonnegative")

    root = math.sqrt(fisher_info)
    y = np.array([math.cos(phi), -root * math.sin(phi)])
    out = np.empty(grid.size)
    prev = 0.0

    def rhs(state):
        return np.array([state[1], -fisher_info * state[0]])

    for k, theta in enumerate(grid):
        span = theta - prev
        if span > 0:
            n_sub = max(1, int(math.ceil(span / max_step)))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if abs(y[0]) > 1.0 + 1e-9:
                    raise BranchError(f"curve left [-1, 1]: E = {y[0]!r}")
                y[0] = min(1.0, max(-1.0, y[0]))
                sign = math.copysign(1.0, y[1]) if y[1] != 0.0 else 0.0
                y[1] = sign * math.sqrt(max(fisher_info * (1 - y[0] ** 2), 0.0))
        out[k] = y[0]
        prev = theta
    return out


def simulate_pairs_from_table(table: OutcomeTable, n_trials: int, seed: int,
                              first_trial: int = 0) -> PairCounts:
    """Seeded pair draws from an explicit 4-outcome table.

    Trial i consumes word i of the seed's counter-based stream, so
    partitioned workers tallying disjoint trial ranges merge by addition
    into the identical result.
    """
    if tuple(table.outcomes) != PAIR_OUTCOMES:
        raise ValueError("table outcomes must be in canonical pair order")
    return PairCounts(*rng.sample_outcome_counts(
        table.probs, n_trials, seed, first_trial=first_trial).tolist())


def simulate_pairs(theta: float, model: CorrelationModel, n_trials: int,
                   seed: int, first_trial: int = 0) -> PairCounts:
    """Seeded pair draws from the model's table at router angle theta."""
    return simulate_pairs_from_table(pair_table(theta, model), n_trials, seed,
                                     first_trial=first_trial)
