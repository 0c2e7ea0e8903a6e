"""Randomized patrol radius.

If the patrol radius is scaled by a positive random multiplier k with
E[k] = 1, the small-radius detection probability scales by E[1/k], and
convexity of x -> 1/x makes E[1/k] >= 1: randomizing the radius never hurts.
This module carries the discrete distribution record, both sides of that
convexity inequality, the randomized closed form, the exact randomized
probability, a Monte Carlo estimator that actually redraws the radius per
trial, and a time-average check that a single patroller hopping through
radius states reproduces the ensemble mean.

Patrol radius k*R turns the scan ratio e = r/R into e/k and leaves v/u
alone, so each atom k is the circular model's arc at e/k (`_atom_arcs`),
and the exact sum and the Monte Carlo indicator read that one table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .circular import TWO_PI, _arc, _sin_alpha
from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import (CircularPatrolScenario, ValidationError, _is_number,
                       validate)

__all__ = [
    "PiecewiseRadiusProcess",
    "RadiusDistribution",
    "asymptotic_probability_randomized",
    "ergodic_time_average",
    "exact_probability_random_radius",
    "jensen_sides",
    "mc_probability_random_radius",
    "validate_process",
]

_MEAN_TOL = 1e-12


def _real(value, name: str) -> float:
    if not _is_number(value):
        raise ValidationError(f"{name} must be a real number")
    return float(value)


@dataclass(frozen=True)
class RadiusDistribution:
    """Discrete distribution of the radius multiplier k.

    atoms are (k, p) pairs: positive multipliers with positive weights
    summing to 1, and E[k] = 1 exactly (to 1e-12).  k_minus and k_plus bound
    the support, with k_minus <= 1 <= k_plus; both equal 1 only for the
    degenerate point mass at k = 1.  Build through from_atoms, which raises
    ValidationError on malformed input too: atoms that are not a list of
    [k, p] pairs, or a k, p, k_minus or k_plus that is not a real number.
    """

    atoms: tuple[tuple[float, float], ...]
    k_minus: float
    k_plus: float

    @staticmethod
    def from_atoms(atoms: Sequence[tuple[float, float]],
                   k_minus: Optional[float] = None,
                   k_plus: Optional[float] = None) -> "RadiusDistribution":
        if not isinstance(atoms, (list, tuple)) or not all(
                isinstance(atom, (list, tuple)) and len(atom) == 2
                for atom in atoms):
            raise ValidationError("atoms must be a list of [k, p] pairs")
        clean = tuple((_real(k, "atom multiplier k"), _real(p, "atom weight p"))
                      for k, p in atoms)
        if not clean:
            raise ValidationError("distribution needs at least one atom")
        for k, p in clean:
            if not (math.isfinite(k) and k > 0):
                raise ValidationError("atom multipliers must be positive")
            if not (math.isfinite(p) and p > 0):
                raise ValidationError("atom weights must be positive")
        total = math.fsum(p for _, p in clean)
        if abs(total - 1.0) > _MEAN_TOL:
            raise ValidationError("atom weights must sum to 1")
        mean = math.fsum(k * p for k, p in clean)
        if abs(mean - 1.0) > _MEAN_TOL:
            raise ValidationError("multiplier mean must equal 1")
        low = min(k for k, _ in clean)
        high = max(k for k, _ in clean)
        k_minus = low if k_minus is None else _real(k_minus, "k_minus")
        k_plus = high if k_plus is None else _real(k_plus, "k_plus")
        if not 0.0 < k_minus <= low:
            raise ValidationError("k_minus must satisfy 0 < k_minus <= min k")
        if not high <= k_plus:
            raise ValidationError("k_plus must satisfy k_plus >= max k")
        # mean-one forces the support to straddle 1, degenerate case aside
        if not k_minus <= 1.0 <= k_plus:
            raise ValidationError("support bounds must straddle 1")
        return RadiusDistribution(atoms=clean, k_minus=k_minus, k_plus=k_plus)

    def mean_inverse(self) -> float:
        """E[1/k]; >= 1 by convexity, with equality only at the point mass."""
        return math.fsum(p / k for k, p in self.atoms)

    def cumulative_weights(self) -> list[float]:
        return list(itertools.accumulate(p for _, p in self.atoms))


def _check_radius_margin(d: RadiusDistribution, r: float, R: float) -> None:
    if r >= d.k_minus * R:
        raise ValidationError(
            "r < k_minus * R required (smallest randomized radius must exceed r)")


def jensen_sides(d: RadiusDistribution, r: float, R: float) -> tuple[float, float]:
    """Both sides of the convexity inequality, as (lhs, rhs).

    lhs = (r/R) E[1/k] is the randomized per-vehicle coverage scale, rhs =
    r/R the fixed-radius one; lhs >= rhs always, equality only when the
    distribution is the point mass at 1.
    """
    if not (r > 0 and R > 0):
        raise ValidationError("r and R must be positive")
    _check_radius_margin(d, r, R)
    ratio = r / R
    return ratio * d.mean_inverse(), ratio


def asymptotic_probability_randomized(s: CircularPatrolScenario,
                                      d: RadiusDistribution) -> float:
    """Randomized small-r closed form min(1, n (r/R) E[1/k] / (pi sin alpha)).

    With E[1/k] >= 1 this never falls below the fixed-radius value."""
    validate(s)
    _check_radius_margin(d, s.r, s.R)
    e, sin_alpha = s.r / s.R, _sin_alpha(s.u, s.v)
    return min(1.0, s.n * (e * d.mean_inverse() / math.pi / sin_alpha))


def _atom_arcs(s: CircularPatrolScenario,
               d: RadiusDistribution) -> list[tuple[float, float]]:
    """(lo, L) of each atom's detection arc: the arc at patrol radius k*R
    (launch circle k*R + r), whose scan ratio is e/k."""
    e, w = s.r / s.R, s.v / s.u
    return [_arc(e / k, w) for k, _ in d.atoms]


def exact_probability_random_radius(s: CircularPatrolScenario,
                                    d: RadiusDistribution) -> float:
    """Exact interception probability with the radius redrawn per run: the
    sum over atoms of p_k * min(1, n*L_k/(2*pi)), L_k the arc length at
    patrol radius k*R."""
    validate(s)
    _check_radius_margin(d, s.r, s.R)
    value = math.fsum(p * min(1.0, s.n * length / TWO_PI)
                      for (_, p), (_, length) in zip(d.atoms, _atom_arcs(s, d)))
    # the weights sum to 1 only to 1e-12
    return min(1.0, value)


class _RandomRadiusIndicator:
    """Two draws per trial: slot 0 picks the atom by cumulative weight, slot
    1 the launch angle psi ~ U[0, 2*pi).  Each atom k has its own detection
    arc (`_atom_arcs`), computed once here."""

    n_draws = 2

    def __init__(self, s: CircularPatrolScenario, d: RadiusDistribution):
        import numpy as np

        self._cum = np.asarray(d.cumulative_weights())
        self._lo, self._length = map(np.array, zip(*_atom_arcs(s, d)))
        self._period = TWO_PI / s.n

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags; computes in place, overwriting u."""
        import numpy as np

        atom, x = u[:, 0], u[:, 1]
        # mode="clip" maps the index past the last atom (u beyond a final
        # cumulative weight rounded below 1) onto the last atom
        idx = np.searchsorted(self._cum, atom, side="right")
        np.multiply(x, TWO_PI, out=x)
        np.subtract(x, np.take(self._lo, idx, out=atom, mode="clip"), out=x)
        np.mod(x, self._period, out=x)
        return x <= np.take(self._length, idx, out=atom, mode="clip")


def mc_probability_random_radius(s: CircularPatrolScenario, d: RadiusDistribution,
                                 trials: int, seed: int,
                                 workers: int = 1) -> EstimateWithCI:
    """Monte Carlo interception probability with the radius redrawn per trial."""
    validate(s)
    _check_radius_margin(d, s.r, s.R)
    return run_bernoulli_trials(_RandomRadiusIndicator(s, d), trials,
                                SeedSchedule(seed), workers)


@dataclass(frozen=True)
class PiecewiseRadiusProcess:
    """Radius multiplier held constant for `dwell` time units per visit.

    transition picks the next state: "cyclic" steps through the states in
    order, "random" draws the next state uniformly and independently.  The
    horizon must cover at least 100 dwell periods so the trajectory average
    has room to settle.
    """

    states: tuple[float, ...]
    dwell: float
    horizon: float
    transition: str = "cyclic"


def validate_process(proc: PiecewiseRadiusProcess) -> PiecewiseRadiusProcess:
    if not proc.states:
        raise ValidationError("process needs at least one state")
    for k in proc.states:
        if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0):
            raise ValidationError("states must be positive multipliers")
    if not (math.isfinite(proc.dwell) and proc.dwell > 0):
        raise ValidationError("dwell must be positive")
    if proc.transition not in ("cyclic", "random"):
        raise ValidationError("transition must be 'cyclic' or 'random'")
    if not proc.horizon >= 100.0 * proc.dwell:
        raise ValidationError("horizon >= 100 * dwell required")
    return proc


def ergodic_time_average(proc: PiecewiseRadiusProcess,
                         seed: int) -> tuple[float, float]:
    """(trajectory average of 1/k over the horizon, ensemble average E[1/k]).

    Both transition rules have the uniform distribution over states as their
    stationary law, so the two numbers agree up to O(1/sqrt(#dwells)) in the
    random case and up to one partial cycle in the cyclic case.
    """
    validate_process(proc)
    inverse = [1.0 / k for k in proc.states]
    m = len(inverse)
    source = SeedSchedule(seed).trial_source(0)
    full = int(proc.horizon // proc.dwell)
    remainder = proc.horizon - full * proc.dwell
    acc = 0.0
    idx = 0
    for step in range(full + (1 if remainder > 0.0 else 0)):
        duration = proc.dwell if step < full else remainder
        acc += duration * inverse[idx]
        if proc.transition == "cyclic":
            idx = (idx + 1) % m
        else:
            idx = min(int(source.uniform(0.0, m)), m - 1)
    return acc / proc.horizon, math.fsum(inverse) / m
