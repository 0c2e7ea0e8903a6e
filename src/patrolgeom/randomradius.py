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
alone, so each atom k is the circular model's arc at e/k.  The model's
record is the circular model's `_FoldIndicator`, with the same span, 2*pi,
and one atom (p, lo, L) per multiplier.  The exact probability
is its exact sum, in which an atom whose arc spans the fleet spacing
counts exactly p.  Its Monte Carlo test takes a first draw that picks
each trial's atom, hence its arc, even where there is one atom; a draw at
or past the sum of every weight but the last picks the last atom.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .circular import (TWO_PI, _detection_arc, _FoldIndicator, _share,
                       _sin_alpha)
from .montecarlo import (EstimateWithCI, SeedSchedule, _trial_draws,
                         run_bernoulli_trials)
from .scenario import (CircularPatrolScenario, ValidationError, _number,
                       _Record, _validate_as)

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
    number = _number(value)
    if number is None:
        raise ValidationError(f"{name} must be a real number")
    return number


class RadiusDistribution(_Record):
    """Discrete distribution of the radius multiplier k.

    atoms are (k, p) pairs: positive multipliers with positive weights
    summing to 1, and E[k] = 1 exactly (to 1e-12), so the smallest atom is
    at most 1 and the largest at least 1.  Build through from_atoms, which
    raises ValidationError on malformed input too: atoms that are not a
    list of [k, p] pairs, or a k or p that is not a real number.
    """

    atoms: tuple[tuple[float, float], ...]

    @staticmethod
    def from_atoms(atoms: Sequence[tuple[float, float]]) -> "RadiusDistribution":
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
        # a mean of one within 1e-12 may still miss the support's hull
        if not min(clean)[0] <= 1.0 <= max(clean)[0]:
            raise ValidationError("support must straddle 1")
        return RadiusDistribution(atoms=clean)

    def mean_inverse(self) -> float:
        """E[1/k]; >= 1 by convexity, with equality only at the point mass."""
        return math.fsum(p / k for k, p in self.atoms)


def _check_radius_margin(d: RadiusDistribution, r: float, R: float) -> None:
    """ValidationError unless the smallest ring, the smallest atom times R,
    clears r."""
    if r >= min(d.atoms)[0] * R:
        raise ValidationError(
            "r < k_minus * R required (smallest randomized radius must exceed r)")


def jensen_sides(d: RadiusDistribution, r: float, R: float) -> tuple[float, float]:
    """Both sides of the convexity inequality, as (lhs, rhs).

    lhs = (r/R) E[1/k] is the randomized per-vehicle coverage scale, rhs =
    r/R the fixed-radius one; lhs >= rhs always, equality only when the
    distribution is the point mass at 1.
    """
    r, R = _number(r), _number(R)
    if r is None or R is None or not (0 < r < math.inf and 0 < R < math.inf):
        raise ValidationError("r and R must be positive and finite")
    _check_radius_margin(d, r, R)
    ratio = r / R
    return ratio * d.mean_inverse(), ratio


def asymptotic_probability_randomized(s: CircularPatrolScenario,
                                      d: RadiusDistribution) -> float:
    """Randomized small-r closed form min(1, n (r/R) E[1/k] / (pi sin alpha)).

    With E[1/k] >= 1 this never falls below the fixed-radius value.
    OverflowError where the per-vehicle share underflows to 0, as in
    `circular.asymptotic_summary`."""
    _validate_as(s, CircularPatrolScenario)
    _check_radius_margin(d, s.r, s.R)
    e, sin_alpha = s.r / s.R, _sin_alpha(s.u, s.v)
    share = _share(e, sin_alpha, d.mean_inverse())
    if share == 0.0:
        raise OverflowError("closed form exceeds the float range")
    return min(1.0, s.n * share)


def exact_probability_random_radius(s: CircularPatrolScenario,
                                    d: RadiusDistribution) -> float:
    """Exact interception probability with the radius redrawn per run: the
    sum over atoms of p_k * min(1, n*L_k/(2*pi)), L_k the arc length at
    patrol radius k*R."""
    return _indicator(s, d).exact()


def _indicator(s: CircularPatrolScenario, d: RadiusDistribution):
    """Two draws per trial: slot 0 picks the atom by cumulative weight, slot
    1 the launch angle psi ~ U[0, 2*pi/n), tested against that atom's arc:
    the arc at patrol radius k*R (launch circle k*R + r), whose scan ratio
    is e/k.  The scenario must be valid and the smallest ring clear r."""
    _validate_as(s, CircularPatrolScenario)
    _check_radius_margin(d, s.r, s.R)
    lo, length = zip(*(_detection_arc(s, k) for k, _ in d.atoms))
    return _FoldIndicator(s.n, TWO_PI, lo, length, [p for _, p in d.atoms])


def mc_probability_random_radius(s: CircularPatrolScenario, d: RadiusDistribution,
                                 trials: int, seed: int,
                                 workers: int = 1) -> EstimateWithCI:
    """Monte Carlo interception probability with the radius redrawn per trial."""
    return run_bernoulli_trials(_indicator(s, d), trials,
                                SeedSchedule(seed), workers)


class PiecewiseRadiusProcess(_Record):
    """Radius multiplier held constant for `dwell` time units per visit.

    transition picks the next state: "cyclic" steps through the states in
    order, "random" draws the next state uniformly and independently.  The
    horizon must cover at least 100 dwell periods so the trajectory average
    has room to settle, and at most 10**6, because the average walks the
    horizon one dwell at a time.
    """

    states: tuple[float, ...]
    dwell: float
    horizon: float
    transition: str = "cyclic"


def validate_process(proc: PiecewiseRadiusProcess) -> PiecewiseRadiusProcess:
    if not proc.states:
        raise ValidationError("process needs at least one state")
    for k in map(_number, proc.states):
        if not (k is not None and math.isfinite(k) and k > 0):
            raise ValidationError("states must be positive multipliers")
    dwell, horizon = _number(proc.dwell), _number(proc.horizon)
    if not (dwell is not None and math.isfinite(dwell) and dwell > 0):
        raise ValidationError("dwell must be positive")
    if proc.transition not in ("cyclic", "random"):
        raise ValidationError("transition must be 'cyclic' or 'random'")
    if not (horizon is not None and math.isfinite(horizon)):
        raise ValidationError("horizon must be finite")
    if not horizon >= 100.0 * dwell:
        raise ValidationError("horizon >= 100 * dwell required")
    if horizon > 1e6 * dwell:
        raise ValidationError("horizon <= 10**6 * dwell required")
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
    full = int(proc.horizon // proc.dwell)
    origin = SeedSchedule(seed)._state(0, full)
    remainder = proc.horizon - full * proc.dwell
    if proc.transition == "cyclic":
        path = itertools.cycle(range(m))
    else:
        # state 0, then state int(m*u) per draw u of trial 0 of full draws;
        # u <= 1 - 2**-53 puts m*u more than half an ulp below m, so it
        # rounds below m
        path = itertools.chain([0], (int(m * u)
                                     for u in _trial_draws(origin, full)))
    per_dwell = [proc.dwell * k for k in inverse]
    acc = 0.0
    for idx in itertools.islice(path, full):
        acc += per_dwell[idx]
    if remainder > 0.0:
        acc += remainder * inverse[next(path)]
    return acc / proc.horizon, math.fsum(inverse) / m
