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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circular import AsymptoticSummary, minimum_fleet_size
from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import LinearPatrolScenario, ValidationError, validate

__all__ = [
    "CrossingSample",
    "asymptotic_summary_linear",
    "detects_linear",
    "mc_probability_linear",
    "vehicle_position_linear",
]


@dataclass(frozen=True)
class CrossingSample:
    """One crossing draw: a in [0, R] is where the intruder crosses the
    patrol segment, b in [0, 2R/n] the initial unfolded phase of the fleet."""

    a: float
    b: float


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
    two_R = 2.0 * s.R
    c = (b + j * (two_R / s.n) + s.v * t) % two_R
    return c if c <= s.R else two_R - c


def _lattice_detects(a: np.ndarray, b: np.ndarray,
                     s: LinearPatrolScenario) -> np.ndarray:
    """Detection flags for crossings at a with fleet phase b (float64
    arrays, both overwritten): the relative line's axis crossing lies within
    r/sin(alpha) of the vehicle lattice (2R/n)*Z."""
    import numpy as np

    period = 2.0 * s.R / s.n
    reach = s.r / math.sin(math.atan2(s.u, s.v))
    x = np.subtract(b, a, out=b)
    np.add(x, s.v * s.r / s.u, out=x)
    np.mod(x, period, out=x)
    np.subtract(period, x, out=a)
    np.minimum(x, a, out=x)
    return x <= reach


def detects_linear(sample: CrossingSample, s: LinearPatrolScenario) -> bool:
    """True iff some vehicle's scan disk reaches the intruder while it is
    inside the strip (tangency included).

    The squared separation is dx(t)^2 + (r - u*t)^2 over t in [0, 2r/u],
    where dx is the cylinder distance between the vehicle's unrolled
    coordinate b + j*(2R/n) + v*t and the crossing coordinate a, mod 2R;
    its minimum over t and j has the closed form of the module docstring.
    """
    validate(s)
    if not 0.0 <= sample.a <= s.R:
        raise ValidationError("a must lie in [0, R]")
    if not 0.0 <= sample.b <= 2.0 * s.R / s.n:
        raise ValidationError("b must lie in [0, 2R/n]")
    import numpy as np

    a, b = np.array([sample.a], dtype=float), np.array([sample.b], dtype=float)
    return bool(_lattice_detects(a, b, s)[0])


class _CrossingIndicator:
    """Two draws per trial: slot 0 gives a = u*R, slot 1 gives b = u*2R/n."""

    n_draws = 2

    def __init__(self, s: LinearPatrolScenario):
        import numpy  # noqa: F401  loaded in the constructing thread

        self._s = s

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags; computes in place, overwriting u."""
        import numpy as np

        s = self._s
        a, b = u[:, 0], u[:, 1]
        np.multiply(a, s.R, out=a)
        np.multiply(b, 2.0 * s.R / s.n, out=b)
        return _lattice_detects(a, b, s)


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
    sin_alpha = math.sin(math.atan2(s.u, s.v))
    per_vehicle = s.r / (s.R * sin_alpha)
    return AsymptoticSummary(chord_l=2.0 * s.r / sin_alpha,
                             p_asym=min(1.0, s.n * per_vehicle),
                             m_min=minimum_fleet_size(per_vehicle))
