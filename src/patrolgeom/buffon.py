"""Classical short-needle crossing problem: closed form and Monte Carlo.

The interception probabilities computed elsewhere in this package reduce, in
the small-radius regime, to the same structure as a needle of length l thrown
on parallel lines spaced L apart, so the classical problem doubles as a
calibration target for the Monte Carlo machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import ValidationError

__all__ = [
    "NeedleProblem",
    "buffon_mc",
    "buffon_probability",
    "validate_needle",
]


@dataclass(frozen=True)
class NeedleProblem:
    """Needle of length l on lines spaced L apart, short-needle regime l <= L."""

    l: float
    L: float


def validate_needle(p: NeedleProblem) -> NeedleProblem:
    if not (isinstance(p.l, (int, float)) and math.isfinite(p.l) and p.l > 0):
        raise ValidationError("l must be positive")
    if not (isinstance(p.L, (int, float)) and math.isfinite(p.L) and p.L > 0):
        raise ValidationError("L must be positive")
    if p.l > p.L:
        raise ValidationError("l <= L required (short-needle regime only)")
    return p


def buffon_probability(p: NeedleProblem) -> float:
    """Crossing probability 2*l/(pi*L).

    Derivation: with the distance z from the needle center to the nearest
    line uniform on [0, L/2) and the needle angle phi uniform on [0, pi),
    a crossing occurs iff (l/2) sin phi >= z; integrating sin over [0, pi)
    gives 2l/(pi L).  Equivalently one may take z uniform on [0, L) against
    the full projection l sin phi, which is the form sampled by buffon_mc.
    """
    validate_needle(p)
    return 2.0 * p.l / (math.pi * p.L)


class _NeedleIndicator:
    """Crossing event: z ~ U[0, L) against projection l sin(phi), phi ~ U[0, pi)."""

    n_draws = 2

    def __init__(self, l: float, L: float):
        import numpy  # noqa: F401  loaded in the constructing thread

        self.l = l
        self.L = L

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Crossing flags; computes in place, overwriting u."""
        import numpy as np

        z, proj = u[:, 0], u[:, 1]
        np.multiply(z, self.L, out=z)
        np.multiply(proj, math.pi, out=proj)
        np.sin(proj, out=proj)
        np.multiply(proj, self.l, out=proj)
        return proj >= z


def buffon_mc(p: NeedleProblem, trials: int, seed: int,
              workers: int = 1) -> EstimateWithCI:
    """Monte Carlo estimate of the crossing probability.

    Draw order per trial: z first, phi second.  Tangency (equality) counts
    as a crossing; it has probability zero.
    """
    validate_needle(p)
    indicator = _NeedleIndicator(p.l, p.L)
    return run_bernoulli_trials(indicator, trials, SeedSchedule(seed), workers)
