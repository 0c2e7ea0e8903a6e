"""Back-and-forth patrol of a straight segment.

n vehicles sweep a segment of length R; unrolling the swept strip onto a
cylinder whose directrix is a circle of circumference 2R turns the
turn-and-return motion into uniform circular motion, with the fleet spaced
2R/n apart and the scan disks carried along rigidly.  The intruder crosses
the strip perpendicularly at horizontal coordinate a, is exposed while its
transverse offset satisfies |y| <= r (a window of length 2r/u with
y(t) = r - u*t), and the crossing ensemble is uniform in a on [0, R] and
the fleet phase b on [0, 2R/n].

Detection lives on the cylinder surface, where the horizontal separation
between the object and a vehicle is the circular distance between their
unrolled coordinates mod 2R.  Seen from the fleet, the intruder moves on
the straight line (b - a + v*t, r - u*t), of inclination alpha =
atan2(u, v), against scan disks of radius r centred on the lattice
(2R/n)*Z of the axis y = 0.  The line crosses that axis at
x0 = b - a + v*r/u.  It meets a disk iff its perpendicular distance from
the centre, dist(x0, lattice) * sin(alpha), is at most r, and the foot of
that perpendicular lies inside the disk, hence inside the exposure window
|y| <= r: the window never cuts a chord short.  So detection is the O(1)
test dist(x0, (2R/n)*Z) <= r/sin(alpha), whatever n is, and the detected
phases form a chord of length exactly 2r/sin(alpha) out of each period 2R/n.

Where the reach r/sin(alpha) is at least half the period, every crossing
is detected, whatever the shift v*r/u; sin(alpha) = 0 (v/u beyond the float
range) gives an infinite reach, so it saturates too.

The test, and the vehicle positions, run in quarter units: a, b, the
period, the shift and the reach are all divided by 4.  Scaling by a power
of 2 is exact in binary floating point above the subnormal range, so the
answers are those of the full-size formulas wherever their values are
finite, and the largest value the test forms, b - a + shift < (3/4)*R/n,
stays finite for every R the float range holds, where 2R/n itself would
overflow from R = 9e307.
"""

from __future__ import annotations

import math

from .circular import AsymptoticSummary, _summary
from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import (LinearPatrolScenario, ValidationError, _Record,
                       validate)

__all__ = [
    "CrossingSample",
    "asymptotic_summary_linear",
    "detects_linear",
    "mc_probability_linear",
    "vehicle_position_linear",
]


class CrossingSample(_Record):
    """One crossing draw: a in [0, R] is where the intruder crosses the
    patrol segment, b in [0, 2R/n] the initial unfolded phase of the fleet."""

    a: float
    b: float


# every length the segment model forms is in these units (module docstring)
_UNIT = 0.25


def vehicle_position_linear(j: int, b: float, t: float,
                            s: LinearPatrolScenario) -> float:
    """Position of vehicle j on the segment [0, R] at time t.

    Uniform motion at speed v on the unfolded circle of circumference 2R,
    folded back by reflection: unfolded coordinates c and 2R - c are the
    same physical point.
    """
    validate(s)
    if not 0 <= j < s.n:
        raise ValueError("vehicle index must lie in [0, n)")
    # in _UNIT units, as the detection test: 2R overflows from R = 9e307
    two_R = 2.0 * _UNIT * s.R
    c = (b * _UNIT + j * (two_R / s.n) + s.v * (t * _UNIT)) % two_R
    return (c if c <= s.R * _UNIT else two_R - c) / _UNIT


def _reach(s: LinearPatrolScenario) -> float:
    """r/sin(alpha), the detection distance from the lattice; inf where
    sin(alpha) underflows to 0."""
    sin_alpha = math.sin(math.atan2(s.u, s.v))
    return s.r / sin_alpha if sin_alpha else math.inf


def _lattice(s: LinearPatrolScenario) -> tuple:
    """(period, reach, shift) in _UNIT units, read by the detection test: the
    vehicle lattice (2R/n)*Z, the detection distance r/sin(alpha) from it,
    and the axis crossing's offset (v/u)*r = r*cot(alpha) from b - a, which
    the min keeps finite where v/u overflows.  shift is None where
    reach >= period/2: every crossing is detected."""
    period = s.R / s.n * (2.0 * _UNIT)
    reach = _reach(s) * _UNIT
    if reach >= period / 2.0:
        return period, reach, None
    return period, reach, min(s.v / s.u * s.r * _UNIT, reach)


def _lattice_detects(a: np.ndarray, b: np.ndarray,
                     lattice: tuple) -> np.ndarray:
    """Detection flags for crossings at a with fleet phase b (float64
    arrays in _UNIT units, both overwritten) against the `_lattice`
    triple."""
    import numpy as np

    period, reach, shift = lattice
    if shift is None:
        return np.ones(a.shape, dtype=bool)
    x = np.subtract(b, a, out=b)
    np.add(x, shift, out=x)
    np.mod(x, period, out=x)
    np.subtract(period, x, out=a)
    np.minimum(x, a, out=x)
    return x <= reach


def detects_linear(sample: CrossingSample, s: LinearPatrolScenario) -> bool:
    """True iff some vehicle's scan disk reaches the intruder while it is
    inside the strip (tangency included): the lattice test of the module
    docstring."""
    validate(s)
    if not 0.0 <= sample.a <= s.R:
        raise ValidationError("a must lie in [0, R]")
    lattice = _lattice(s)
    if not 0.0 <= sample.b * _UNIT <= lattice[0]:
        raise ValidationError("b must lie in [0, 2R/n]")
    import numpy as np

    a = np.array([sample.a * _UNIT], dtype=float)
    b = np.array([sample.b * _UNIT], dtype=float)
    return bool(_lattice_detects(a, b, lattice)[0])


class _CrossingIndicator:
    """Two draws per trial: slot 0 gives a = u*R, slot 1 gives b = u*2R/n,
    both in _UNIT units."""

    n_draws = 2

    def __init__(self, s: LinearPatrolScenario):
        import numpy  # noqa: F401  loaded in the constructing thread

        self._R = s.R * _UNIT
        self._lattice = _lattice(s)

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags; computes in place, overwriting u."""
        import numpy as np

        a, b = u[:, 0], u[:, 1]
        np.multiply(a, self._R, out=a)
        np.multiply(b, self._lattice[0], out=b)
        return _lattice_detects(a, b, self._lattice)


def mc_probability_linear(s: LinearPatrolScenario, trials: int, seed: int,
                          workers: int = 1) -> EstimateWithCI:
    """Monte Carlo detection probability over the uniform crossing ensemble."""
    validate(s)
    return run_bernoulli_trials(_CrossingIndicator(s), trials,
                                SeedSchedule(seed), workers)


def asymptotic_summary_linear(s: LinearPatrolScenario) -> AsymptoticSummary:
    """Closed forms for the segment patrol.

    On the cylinder the intruder traces a straight line of inclination
    alpha = atan2(u, v) against the vehicle lattice; one scan disk blocks a
    chord of length 2r/sin alpha out of each period 2R/n, so
    p = min(1, n r / (R sin alpha)) and m_min = ceil(R sin alpha / r).
    Unlike the circular case the relative trajectory has no curvature, so
    this is exact for the uniform crossing ensemble, not just a small-r
    limit; Monte Carlo deviations from it are pure sampling noise.
    """
    validate(s)
    reach = _reach(s)
    return _summary(2.0 * reach, reach / s.R, s.n)
