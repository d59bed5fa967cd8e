"""Single-particle dichotomic deflection: table and seeded simulator.

A particle carrying a unit moment S passes a magnet with unit direction a
and is deflected to one of two detectors x = +-1.  Isotropy makes the
outcome distribution a function of a . S = cos(theta) alone, and the
constant-Fisher requirement fixes it to

    P(x) = (1 + branch_sign * x * a . S) / 2,

where the branch sign records which deflection direction is labelled +1.
The per-trial Fisher information of this family is identically 1 away from
theta in {0, pi}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .eprb import _check_unit, angle_between
from .inference import CountRecord, OutcomeTable

SG_OUTCOMES = (1, -1)


@dataclass(frozen=True, eq=False)
class MagnetSetting:
    """Magnet direction, moment direction, and the +-1 labelling choice."""

    a: np.ndarray
    S: np.ndarray
    branch_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", _check_unit(self.a, "a"))
        object.__setattr__(self, "S", _check_unit(self.S, "S"))
        if self.branch_sign not in (-1, 1):
            raise ValueError("branch_sign must be +1 or -1")

    @property
    def theta(self) -> float:
        return angle_between(self.a, self.S)


def sg_probabilities(expectation):
    """(P(+1), P(-1)) with P(-1) = 1 - P(+1), so the pair sums to 1 exactly.

    ``expectation`` is a float or an array; for an array both entries are
    arrays of its shape, equal element for element to the scalar call.
    """
    if np.any(np.abs(expectation) > 1.0):
        raise ValueError("|expectation| must not exceed 1")
    p_plus = (1.0 + expectation) / 2.0
    return (p_plus, 1.0 - p_plus)


def sg_family(branch_sign: int = 1):
    """Generator theta -> (P(+1), P(-1)) for E(theta) = branch * cos(theta)."""
    def generator(theta: np.ndarray):
        return sg_probabilities(branch_sign * math.cos(float(theta[0])))
    return generator


def sg_table_from_angle(theta: float, branch_sign: int = 1) -> OutcomeTable:
    return OutcomeTable.from_generator(sg_family(branch_sign), [theta],
                                       SG_OUTCOMES)


def sg_table(setting: MagnetSetting) -> OutcomeTable:
    """Deflection table P(x) = (1 + branch * x * a . S) / 2.

    Built from the inner product, so settings with equal a . S yield
    bitwise-identical tables.
    """
    return sg_table_from_angle(setting.theta, setting.branch_sign)


def simulate_sg(setting: MagnetSetting, n_trials: int, seed: int,
                first_trial: int = 0) -> CountRecord:
    """Seeded deflection draws; deterministic in (setting, n_trials, seed)."""
    return CountRecord(SG_OUTCOMES, rng.sample_outcome_counts(
        sg_table(setting).probs, n_trials, seed, first_trial=first_trial))
