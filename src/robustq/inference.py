"""Discrete outcome tables, multinomial evidence, and Fisher information.

The objects here quantify how strongly observed count data favour one
parameter value of a finite outcome distribution over a displaced one.
Central quantities:

* the multinomial probability of a count vector under a table,
* the log evidence ``sum_o n_o ln(p1_o / p0_o)`` between two tables,
* its quadratic expansion ``-(N/2) eps' I eps`` in the displacement, whose
  coefficient matrix I is the per-trial Fisher information of the family,
* the count assignments that maximise the multinomial probability, with
  the sharp bracketing bounds every maximiser must satisfy.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceError

NORMALISATION_TOL = 1e-12
POSITIVITY_FLOOR = 1e-12
DERIVATIVE_STEP = 1e-5
BOUND_TOL = 1e-12  # relative slack of evidence_bound_check's sandwich
LOG_FORM_THRESHOLD = 100
COMPOSITION_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Finite conditional probability table P(outcome | parameter, conditions).

    ``outcomes`` is an ordered label tuple (m >= 2).  ``probs`` is aligned
    with it.  ``generator`` (when present) maps a parameter vector to the
    probability tuple, making the table a point of a parametric family.
    Construction does not enforce the probability invariants; use
    :func:`validate_table` to obtain a verdict.
    """

    outcomes: tuple
    probs: Tuple[float, ...]
    parameter: Tuple[float, ...] = ()
    generator: Optional[Callable[[np.ndarray], Sequence[float]]] = None

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "parameter",
                           tuple(float(t) for t in self.parameter))
        if len(self.outcomes) < 2:
            raise ValueError("an outcome table needs at least two outcomes")
        if len(self.probs) != len(self.outcomes):
            raise ValueError("probs and outcomes must have equal length")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")

    @classmethod
    def from_generator(cls, generator, theta, outcomes) -> "OutcomeTable":
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        probs = tuple(float(p) for p in generator(theta))
        return cls(outcomes=tuple(outcomes), probs=probs,
                   parameter=tuple(theta), generator=generator)

    def prob_of(self, outcome) -> float:
        return self.probs[self.outcomes.index(outcome)]

    def prob_array(self) -> np.ndarray:
        return np.array(self.probs)


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Observed event counts per outcome."""

    outcomes: tuple
    counts: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if len(self.counts) != len(self.outcomes):
            raise ValueError("counts and outcomes must have equal length")
        if any(n < 0 for n in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, eq=False)
class EvidenceReport:
    """Exact evidence between a family point and its displacement, together
    with the quadratic prediction and a computed remainder bound."""

    log_evidence: float
    epsilon: Tuple[float, ...]
    quadratic_prediction: float
    cubic_remainder_bound: float


@dataclass(frozen=True, eq=False)
class FisherReport:
    """Per-trial Fisher information matrix of a parametric outcome family."""

    matrix: np.ndarray
    parameter: Tuple[float, ...]
    excluded_outcomes: tuple = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, copy=True)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def scalar(self) -> float:
        """The single matrix entry of a one-parameter family."""
        if self.matrix.shape != (1, 1):
            raise ValueError("scalar() requires a one-parameter family")
        return float(self.matrix[0, 0])


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """Sandwich 0 <= eps' I eps <= d * max_i eps_i^2 * trace(I)."""

    lower: float
    quadratic_form: float
    upper: float
    passed: bool


@dataclass(frozen=True, eq=False)
class FrequencyAssignment:
    """Probability assignments induced by a count vector: the maximising
    assignment n_j / (N + 1) (which deliberately does not normalise; its
    total is N / (N + 1)) and the plain frequencies n_j / N."""

    counts: Tuple[int, ...]
    maximizing: Tuple[float, ...]
    frequencies: Tuple[float, ...]

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FrequencyAssignment":
        counts = tuple(int(n) for n in counts)
        total = sum(counts)
        return cls(counts=counts,
                   maximizing=tuple(n / (total + 1) for n in counts),
                   frequencies=tuple(n / total for n in counts))


@dataclass(frozen=True, eq=False)
class MaximizerReport:
    """Result of the direct multinomial maximiser search."""

    n_total: int
    n_outcomes: int
    n_compositions: Optional[int]
    maximizers: Optional[Tuple[Tuple[int, ...], ...]]
    bound_violations: Optional[Tuple[str, ...]]
    assignments: Tuple[FrequencyAssignment, ...]

    @property
    def bounds_satisfied(self) -> Optional[bool]:
        if self.bound_violations is None:
            return None
        return not self.bound_violations


# ---------------------------------------------------------------------------
# table validation
# ---------------------------------------------------------------------------

def validate_table(table: OutcomeTable) -> list:
    """Return the list of violated probability invariants (empty when valid).

    Checks normalisation, nonnegativity, and the complement rule
    P(A) + P(not A) = 1 for every singleton subset A, each within
    ``NORMALISATION_TOL``; additivity makes the singleton checks cover all
    other subsets up to summation rounding.
    Never raises: a verdict is always produced.
    """
    violations = []
    p = table.prob_array()
    if not np.all(np.isfinite(p)):
        bad = [o for o, po in zip(table.outcomes, table.probs)
               if not math.isfinite(po)]
        violations.append(f"finiteness: non-finite probability at {bad!r}")
        return violations
    total = float(p.sum())
    if abs(total - 1.0) > NORMALISATION_TOL:
        violations.append(f"normalisation: probabilities sum to {total!r}")
    for o, po in zip(table.outcomes, table.probs):
        if po < 0:
            violations.append(f"nonnegativity: P({o!r}) = {po!r}")
    for i, o in enumerate(table.outcomes):
        comp = float(np.delete(p, i).sum())
        if abs(table.probs[i] + comp - 1.0) > NORMALISATION_TOL:
            violations.append(
                f"complement rule: P({o!r}) + P(rest) = {table.probs[i] + comp!r}")
    return violations


def _aligned_probs(counts: CountRecord, table: OutcomeTable) -> np.ndarray:
    try:
        return np.array([table.prob_of(o) for o in counts.outcomes])
    except ValueError as exc:
        raise ValueError("count outcomes must be a subset of the table's") from exc


# ---------------------------------------------------------------------------
# multinomial probability and evidence
# ---------------------------------------------------------------------------

def log_multinomial_iprob(counts: CountRecord, table: OutcomeTable) -> float:
    """Natural log of the multinomial probability of the counts.

    Returns ``-inf`` when an observed outcome has zero probability (the
    compound event is impossible under the table).
    """
    p = _aligned_probs(counts, table)
    n = np.array(counts.counts, dtype=float)
    result = math.lgamma(counts.total + 1)
    for ni, pi in zip(n, p):
        result -= math.lgamma(ni + 1)
        if ni > 0:
            if pi <= 0.0:
                return -math.inf
            result += ni * math.log(pi)
    return result


def multinomial_iprob(counts: CountRecord, table: OutcomeTable) -> float:
    """Probability N! * prod_o p_o^{n_o} / n_o! of observing the counts.

    Uses exact factorial arithmetic for N <= 100 and the log-space companion
    beyond that (where factorials overflow doubles).
    """
    p = _aligned_probs(counts, table)
    n = counts.counts
    for ni, pi in zip(n, p):
        if ni > 0 and pi <= 0.0:
            raise DomainError(
                "an observed outcome has zero probability; the probability is "
                "exactly 0 (use log_multinomial_iprob for the -inf sentinel)")
    if counts.total > LOG_FORM_THRESHOLD:
        return math.exp(log_multinomial_iprob(counts, table))
    coeff = math.factorial(counts.total)
    for ni in n:
        coeff //= math.factorial(ni)
    value = float(coeff)
    for ni, pi in zip(n, p):
        if ni > 0:
            value *= pi ** ni
    return value


def log_evidence(counts: CountRecord, table_h1: OutcomeTable,
                 table_h0: OutcomeTable) -> float:
    """Log evidence sum_o n_o (ln p1_o - ln p0_o) of table_h1 over table_h0.

    Summed in the counts' outcome order with per-term log differences, so
    exchanging the tables negates the result bitwise.
    """
    p1 = _aligned_probs(counts, table_h1)
    p0 = _aligned_probs(counts, table_h0)
    total = 0.0
    for ni, a, b in zip(counts.counts, p1, p0):
        if ni == 0:
            continue
        if a <= 0.0 or b <= 0.0:
            raise DomainError("log evidence needs strictly positive "
                              "probabilities on observed outcomes")
        total += ni * (math.log(a) - math.log(b))
    return total


# ---------------------------------------------------------------------------
# parametric families: Fisher information and the evidence expansion
# ---------------------------------------------------------------------------

def _family_probs(table: OutcomeTable, theta: np.ndarray) -> np.ndarray:
    if table.generator is None:
        raise ValueError("operation requires a table with a generator")
    p = np.asarray(table.generator(theta), dtype=float)
    if p.shape != (len(table.outcomes),):
        raise ValueError("generator returned a wrong-sized probability vector")
    return p


def _theta_of(table: OutcomeTable, theta) -> np.ndarray:
    if theta is None:
        theta = table.parameter
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("parameter must be a vector of dimension >= 1")
    return theta


def fisher_discrete(family: OutcomeTable, theta=None) -> FisherReport:
    """Per-trial Fisher information matrix of a parametric outcome family.

    I[i, i'] = sum_o (1/p_o) (dp_o/dtheta_i)(dp_o/dtheta_i') with derivatives
    by central differences of relative step ``DERIVATIVE_STEP``.  Outcomes
    with probability below ``POSITIVITY_FLOOR`` are excluded from the sum
    (the 1/p weight is singular there) and listed in the report.
    """
    theta = _theta_of(family, theta)
    p0 = _family_probs(family, theta)
    d = theta.size
    m = p0.size
    dp = np.empty((d, m))
    for i in range(d):
        hi = DERIVATIVE_STEP * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tp[i] += hi
        tm = theta.copy()
        tm[i] -= hi
        dp[i] = (_family_probs(family, tp) - _family_probs(family, tm)) / (2 * hi)
    included = p0 >= POSITIVITY_FLOOR
    excluded = tuple(o for o, keep in zip(family.outcomes, included) if not keep)
    if not included.any():
        raise DomainError("all outcomes fall below the positivity floor")
    weights = 1.0 / p0[included]
    dpi = dp[:, included]
    matrix = (dpi * weights) @ dpi.T
    return FisherReport(matrix=matrix, parameter=tuple(theta),
                        excluded_outcomes=excluded)


def _robust_evidence(family: OutcomeTable, theta: np.ndarray,
                     epsilon: np.ndarray, trials: float) -> float:
    """Evidence at displacement ``epsilon`` with the robust count assignment
    n_o = N p_o(theta); the first-order term then cancels identically."""
    p0 = _family_probs(family, theta)
    p1 = _family_probs(family, theta + epsilon)
    if np.any(p0 < POSITIVITY_FLOOR) or np.any(p1 < POSITIVITY_FLOOR):
        raise DomainError("a family probability fell below the positivity floor")
    return float(trials * np.sum(p0 * (np.log(p1) - np.log(p0))))


def evidence_quadratic(family: OutcomeTable, theta, epsilon,
                       trials: float) -> EvidenceReport:
    """Exact evidence of theta + epsilon against theta, with robust counts,
    next to its quadratic prediction -(N/2) eps' I eps.

    The remainder Ev(eps) - prediction is O(eps^3) in general; which order
    leads depends on the family and on theta.  For the singlet pair family
    the cubic coefficient is (N/6) cot(theta), so the remainder is cubic at
    a generic angle and quartic at theta = pi/2, where that coefficient is
    zero.

    ``cubic_remainder_bound`` is computed from the evidence at the mirrored
    displacement: with R(eps) = Ev(eps) - prediction, the odd part
    (R(eps) - R(-eps))/2 and even part (R(eps) + R(-eps))/2 bound
    |R(eps)| <= |odd| + |even|.  A displacement so large that the
    prediction or the bound is not finite raises DomainError.
    """
    theta = _theta_of(family, theta)
    epsilon = np.atleast_1d(np.asarray(epsilon, dtype=float))
    if epsilon.shape != theta.shape:
        raise ValueError("epsilon must match the parameter dimension")
    ev_plus = _robust_evidence(family, theta, epsilon, trials)
    ev_minus = _robust_evidence(family, theta, -epsilon, trials)
    info = fisher_discrete(family, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        quad = -0.5 * trials * float(epsilon @ info.matrix @ epsilon)
    odd = 0.5 * ((ev_plus - quad) - (ev_minus - quad))
    even = 0.5 * ((ev_plus - quad) + (ev_minus - quad))
    bound = abs(odd) + abs(even)
    if not (math.isfinite(quad) and math.isfinite(bound)):
        raise DomainError(f"the quadratic prediction ({quad!r}) or the "
                          f"remainder bound ({bound!r}) is not finite")
    return EvidenceReport(log_evidence=ev_plus,
                          epsilon=tuple(epsilon),
                          quadratic_prediction=quad,
                          cubic_remainder_bound=bound)


def evidence_bound_check(family: OutcomeTable, theta, epsilon) -> BoundCheck:
    """Check 0 <= eps' I eps <= d * max_i eps_i^2 * trace(I).

    The upper estimate is the Cauchy-Schwarz bound on the quadratic form; in
    one dimension it is attained exactly.
    """
    theta = _theta_of(family, theta)
    epsilon = np.atleast_1d(np.asarray(epsilon, dtype=float))
    info = fisher_discrete(family, theta)
    quad = float(epsilon @ info.matrix @ epsilon)
    d = theta.size
    upper = d * float(np.max(epsilon ** 2)) * float(np.trace(info.matrix))
    slack = BOUND_TOL * max(1.0, abs(upper))
    passed = -slack <= quad <= upper + slack
    return BoundCheck(lower=0.0, quadratic_form=quad, upper=upper,
                      passed=passed)


# ---------------------------------------------------------------------------
# multinomial maximisers and frequency assignments
# ---------------------------------------------------------------------------

def _maximizers(probs: np.ndarray, n_total: int):
    """The count vectors that maximise the multinomial probability, sorted.

    A greedy fill from floor(N p_j) - 2, below every maximiser by the bound
    n*_j >= (N + 1) p_j - 1, reaches one, the mode; the others move single
    units between outcomes whose marginal gains tie (Finucan 1964; Murota
    2003).  Scores relative to the mode keep exact ties exact."""
    if n_total > 2 ** 53:
        raise ResourceError(f"n_total {n_total} exceeds 2**53")
    p = [float(x) for x in probs]
    n = [max(0, math.floor(n_total * q) - 2) for q in probs / probs.sum()]
    heap = sorted((-pj / (nj + 1), j) for j, (pj, nj) in enumerate(zip(p, n)))
    for _ in range(n_total - sum(n)):
        j = heap[0][1]
        n[j] += 1
        heapq.heapreplace(heap, (-p[j] / (n[j] + 1), j))
    mode = math.lgamma(n_total + 1) + sum(
        nj * math.log(pj) - math.lgamma(nj + 1) for nj, pj in zip(n, p))
    tol = 1e-10 * max(1.0, abs(mode))
    if any(nj and math.log1p(1 / nj) <= 2 * tol for nj in n):
        raise ResourceError("one-count steps fall within the tie tolerance")
    gain = [math.log(pj / (nj + 1)) for pj, nj in zip(p, n)]
    cost = [math.log(pj / nj) if nj else math.inf for pj, nj in zip(p, n)]
    top, low = max(gain) + tol, min(cost) - tol
    give = [j for j, c in enumerate(cost) if c <= top]
    pool = sorted(give + [i for i, g in enumerate(gain) if g >= low])
    if (count := math.comb(len(pool), len(give))) > COMPOSITION_CAP:
        raise ResourceError(f"{count} candidates exceed {COMPOSITION_CAP}")
    back = {k: cost[k] if k in give else gain[k] for k in pool}
    spent = math.fsum(cost[j] for j in give)
    return tuple(sorted(
        tuple(nj - (j in give) + (j in chosen) for j, nj in enumerate(n))
        for chosen in itertools.combinations(pool, len(give))
        if math.fsum(back[k] for k in chosen) >= spent - tol))


def frequency_maximizer_suite(counts_or_probs, n_total: int,
                              n_outcomes: int) -> MaximizerReport:
    """Maximisers of the multinomial probability, their sharp bracketing
    bounds, and the induced frequency assignments.

    With a probability vector: find every maximiser n* of the multinomial
    probability among the compositions of ``n_total`` into ``n_outcomes``
    parts, and verify for each the bounds

        n*_j / (N + m - 1)  <=  p_j  <=  (n*_j + 1) / (N + 1)   for all j.

    With an integer count vector: only the induced assignments are reported
    (counts n_j map to the maximising assignment n_j / (N + 1) and to the
    frequencies n_j / N).
    """
    if n_outcomes < 2 or n_total < 1:
        raise ValueError("need n_outcomes >= 2 and n_total >= 1")
    values = np.asarray(counts_or_probs)
    if len(values) != n_outcomes:
        raise ValueError("input length must equal n_outcomes")

    if np.issubdtype(values.dtype, np.integer):
        counts = tuple(int(v) for v in values)
        if sum(counts) != n_total:
            raise ValueError("counts must sum to n_total")
        return MaximizerReport(
            n_total=n_total, n_outcomes=n_outcomes, n_compositions=None,
            maximizers=None, bound_violations=None,
            assignments=(FrequencyAssignment.from_counts(counts),))

    probs = values.astype(float)
    if np.any(probs <= 0):
        raise DomainError("probabilities must be strictly positive")
    n_comp = math.comb(n_total + n_outcomes - 1, n_outcomes - 1)
    maximizers = _maximizers(probs, n_total)

    violations = []
    for comp in maximizers:
        for j, (nj, pj) in enumerate(zip(comp, probs)):
            lo = nj / (n_total + n_outcomes - 1)
            hi = (nj + 1) / (n_total + 1)
            if not (lo - 1e-12 <= pj <= hi + 1e-12):
                violations.append(
                    f"maximizer {comp}: p_{j} = {pj!r} outside [{lo!r}, {hi!r}]")
    return MaximizerReport(
        n_total=n_total, n_outcomes=n_outcomes, n_compositions=n_comp,
        maximizers=maximizers, bound_violations=tuple(violations),
        assignments=tuple(FrequencyAssignment.from_counts(c)
                          for c in maximizers))
