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

Equivalently, the detected offsets b - a form one window of length
2*reach per period: with the reach r/sin(alpha) and the shift v*r/u,

    (b - a - lo) mod (2R/n) <= 2*reach,   lo = -(shift + reach),

the fold test the circular model runs on launch angles, on the same
record (`circular._FoldIndicator`): span 2, one atom of weight 1, shifted
by draw 0.  The model computes it in units of R, as the circle reads
e = r/R: the period is 2/n, a/R lies in [0, 1], and no value the test
forms exceeds 4 in magnitude, for every R the float range holds, where
2R/n itself overflows from R = 9e307.  Its Monte Carlo draw map is
x = period*u1 - u0: the last draw scaled by the period, less draw 0.  The
record's exact sum min(1, n*length/2) is the closed form's p wherever the
window is a chord, and a window of a period or more reads exactly 1.
At v = 0 the fleet stands still: the reach is r and there is no shift.
Where the reach is at least half the period, the window 2*reach is at
least one period long, so the record's exact() reads 1 and its tests
detect every crossing, whatever the shift.  The reach is capped at one
period: sin(alpha) = 0 (v/u beyond the float range) gives an infinite
reach, which would make lo infinite and the folded offset NaN.
"""

from __future__ import annotations

import math

from .circular import AsymptoticSummary, _FoldIndicator, _summary
from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import (LinearPatrolScenario, ValidationError, _Record,
                       _validate_as, _vehicle_index)

__all__ = [
    "CrossingSample",
    "asymptotic_summary_linear",
    "detects_linear",
    "exact_probability_linear",
    "mc_probability_linear",
    "vehicle_position_linear",
]


class CrossingSample(_Record):
    """One crossing draw: a in [0, R] is where the intruder crosses the
    patrol segment, b in [0, 2R/n] the initial unfolded phase of the fleet."""

    a: float
    b: float


def vehicle_position_linear(j: int, b: float, t: float,
                            s: LinearPatrolScenario) -> float:
    """Position of vehicle j on the segment [0, R] at time t.

    Uniform motion at speed v on the unfolded circle of circumference 2R,
    folded back by reflection: unfolded coordinates c and 2R - c are the
    same physical point.  Finite for every finite b and t.
    """
    _validate_as(s, LinearPatrolScenario)
    j = _vehicle_index(j, s.n)
    if not (math.isfinite(b) and math.isfinite(t)):
        raise ValueError("b and t must be finite")
    # h = c/2 on a circle of circumference R: 2R overflows from R = 9e307
    h = (0.5 * b + j * (s.R / s.n) + s.v * (0.5 * t)) % s.R
    if not math.isfinite(h):
        # the sum left the float range: the same terms, summed exactly
        from fractions import Fraction as F

        h = float((F(0.5 * b) + F(j * (s.R / s.n)) + F(s.v) * F(0.5 * t))
                  % F(s.R))
    return 2.0 * min(h, s.R - h)


def _reach(s: LinearPatrolScenario) -> float:
    """r/sin(alpha), the detection distance from the lattice; inf where
    sin(alpha) underflows to 0."""
    sin_alpha = math.sin(math.atan2(s.u, s.v))
    return s.r / sin_alpha if sin_alpha else math.inf


def detects_linear(sample: CrossingSample, s: LinearPatrolScenario) -> bool:
    """True iff some vehicle's scan disk reaches the intruder while it is
    inside the strip (tangency included): the fold test of the module
    docstring, on the crossing's offset (b - a)/R."""
    record = _indicator(s)
    if not 0.0 <= sample.a <= s.R:
        raise ValidationError("a must lie in [0, R]")
    # halving is exact, so a caller's b = 2*R/n compares equal to R/n
    if not 0.0 <= 0.5 * sample.b <= s.R / s.n:
        raise ValidationError("b must lie in [0, 2R/n]")
    return record.covers(sample.b / s.R - sample.a / s.R)


def _indicator(s: LinearPatrolScenario) -> _FoldIndicator:
    """The fold test of the module docstring, in units of R.  Two draws per
    trial: slot 0 is a/R, slot 1 gives b/R = u*2/n, so the draw map is the
    offset x = (b - a)/R = period*u1 - u0.  The reach is capped at one
    period, which keeps lo finite where sin(alpha) underflows.  The shift
    v*r/(u*R) never exceeds the reach, so the min keeps it finite where v/u
    overflows, and takes the reach where v/u overflows while r/R underflows
    (inf*0 is NaN, and Python's min keeps its first argument then)."""
    _validate_as(s, LinearPatrolScenario)
    period = 2.0 / s.n
    reach = min(_reach(s) / s.R, period)
    lo = -(min(reach, s.v / s.u * (s.r / s.R)) + reach)
    return _FoldIndicator(s.n, 2.0, lo, 2.0 * reach, shift=True)


def exact_probability_linear(s: LinearPatrolScenario) -> float:
    """Detection probability over the uniform crossing ensemble on the
    unfolded cylinder, the record's exact sum min(1, n*length/2): the share
    of the period that the window covers, 1 where it covers a whole period.
    It equals the closed form's p wherever that is finite, and answers
    where the closed form overflows.  This is the paper's model: the
    cylinder tests the offset b - a alone, so it does not count a vehicle
    on its return leg, which the physical segment would."""
    return _indicator(s).exact()


def mc_probability_linear(s: LinearPatrolScenario, trials: int, seed: int,
                          workers: int = 1) -> EstimateWithCI:
    """Monte Carlo detection probability over the uniform crossing ensemble."""
    return run_bernoulli_trials(_indicator(s), trials,
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
    _validate_as(s, LinearPatrolScenario)
    reach = _reach(s)
    return _summary(2.0 * reach, reach / s.R, s.n)
