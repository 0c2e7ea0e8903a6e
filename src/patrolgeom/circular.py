"""Interception geometry for the circular patrol.

In the frame co-rotating with the fleet the vehicles sit still at radius R
while the intruder, launched at angle psi from the circle of radius R + r,
spirals inward: after covering distance d = u*t it is at radius
rho = R + r - d and angle psi - w*delta, with e = r/R, w = v/u and
delta = d/R: every answer depends on e, w and n alone.  Only delta in
[0, 2e] matters: outside it |rho - R| > r and every vehicle is out of reach.

At radius rho the scan disk of vehicle 0 spans the angles within h of 0:

    sin^2(h/2) = (r^2 - (rho - R)^2)/(4*R*rho) = delta*(2e - delta)/(4*rho/R),

the law of cosines in a form free of cancellation.  So vehicle 0 catches
launch angle psi at delta exactly when psi lies in the interval
[w*delta - h, w*delta + h].  These intervals move continuously with delta
and each contains its centre w*delta, so their union over [0, 2e] is
connected: one arc [lo, hi] with lo = min(w*delta - h) and
hi = max(w*delta + h).  Each extremum takes one golden-section search,
because h is concave: in polar coordinates the disk is |theta| <= h(rho)
with cos h = (rho + (R^2 - r^2)/rho) / (2R), the argument of acos is convex
in rho, and acos is concave and decreasing on [0, 1].  Where w overflows
to inf, the arc is the full circle.

The other vehicles' arcs are rotations by 2*pi*i/n, so n equally spaced
copies of an arc of length L cover min(1, n*L/(2*pi)) of the circle.  The
exact solver, `detects` and both Monte Carlo indicators read this one arc;
the dense-grid oracles of the test suite are the independent check.
The closed forms read e and sin(alpha) alone, and raise OverflowError where
their value leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .frames import TWO_PI
from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import CircularPatrolScenario, validate

__all__ = [
    "AsymptoticSummary",
    "CircleIntervalSet",
    "asymptotic_summary",
    "detection_arc_set",
    "detects",
    "exact_probability",
    "mc_probability",
    "minimum_fleet_size",
    "union_measure",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# 0.618**80 < 2**-55: the bracket ends below one ulp of the searched window.
_GOLDEN_STEPS = 80


# ---- arc sets on the circle ----

@dataclass(frozen=True)
class CircleIntervalSet:
    """Disjoint half-open arcs [start, end) on the circle [0, 2*pi).

    Canonical form: starts sorted and in [0, 2*pi); each end in
    (start, start + 2*pi]; arcs pairwise disjoint with strictly positive
    gaps; at most the last arc wraps past 2*pi.  The full circle is the
    single arc (0, 2*pi).
    """

    intervals: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def from_intervals(raw: Iterable[tuple[float, float]]) -> "CircleIntervalSet":
        """Canonicalize arbitrary (start, end) pairs: wrap starts into
        [0, 2*pi), split arcs crossing zero, merge overlapping or touching
        arcs.  Pairs with end <= start are dropped; any arc of length
        >= 2*pi covers everything."""
        pieces: list[tuple[float, float]] = []
        for start, end in raw:
            length = end - start
            if length <= 0.0:
                continue
            if length >= TWO_PI:
                return CircleIntervalSet(((0.0, TWO_PI),))
            s = start % TWO_PI
            if s >= TWO_PI:
                s = 0.0
            e = s + length
            if e > TWO_PI:
                pieces.append((s, TWO_PI))
                pieces.append((0.0, e - TWO_PI))
            else:
                pieces.append((s, e))
        if not pieces:
            return CircleIntervalSet(())
        pieces.sort()
        merged: list[list[float]] = [list(pieces[0])]
        for s, e in pieces[1:]:
            if s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        # arcs meeting at angle 0 on both sides stitch into one wrapped arc
        if len(merged) > 1 and merged[0][0] <= 0.0 and merged[-1][1] >= TWO_PI:
            first = merged.pop(0)
            merged[-1][1] = first[1] + TWO_PI
        if len(merged) == 1 and merged[0][1] - merged[0][0] >= TWO_PI:
            return CircleIntervalSet(((0.0, TWO_PI),))
        return CircleIntervalSet(tuple((s, e) for s, e in merged))

    def measure(self) -> float:
        """Total angular length, in [0, 2*pi]."""
        return min(TWO_PI, math.fsum(e - s for s, e in self.intervals))

    def shifted(self, delta: float) -> "CircleIntervalSet":
        """Rotate every arc by delta; arc lengths are preserved."""
        if not self.intervals or self.intervals == ((0.0, TWO_PI),):
            return self
        out = []
        for s, e in self.intervals:
            ns = (s + delta) % TWO_PI
            if ns >= TWO_PI:
                ns = 0.0
            out.append((ns, ns + (e - s)))
        return CircleIntervalSet.from_intervals(out)

    def contains(self, angle: float) -> bool:
        a = angle % TWO_PI
        for s, e in self.intervals:
            if s <= a < e:
                return True
            if e > TWO_PI and a < e - TWO_PI:
                return True
        return False


def union_measure(sets: Sequence[CircleIntervalSet]) -> float:
    """Measure of the union of arc sets, as a fraction of the circle."""
    arcs = [iv for one in sets for iv in one.intervals]
    return CircleIntervalSet.from_intervals(arcs).measure() / TWO_PI


# ---- the single-arc envelope ----

def _golden_max(f: Callable[[float], float], a: float, b: float) -> float:
    """Maximum of a concave f on [a, b], endpoints included."""
    best_end = max(f(a), f(b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return max(fc, fd, best_end)


def _arc(e: float, w: float) -> tuple[float, float]:
    """(lo, L) for scan ratio e = r/R and speed ratio w = v/u: vehicle 0
    detects exactly the launch angles in [lo, lo + L] mod 2*pi, tangency
    included; L >= 2*pi means every angle."""
    if w == math.inf:
        return 0.0, TWO_PI
    two_e = 2.0 * e

    def h(delta: float) -> float:
        arg = delta * (two_e - delta) / (4.0 * (1.0 + e - delta))
        return 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, arg))))

    hi = _golden_max(lambda delta: w * delta + h(delta), 0.0, two_e)
    lo = -_golden_max(lambda delta: h(delta) - w * delta, 0.0, two_e)
    return lo, hi - lo


def _detection_arc(s: CircularPatrolScenario) -> tuple[float, float]:
    return _arc(s.r / s.R, s.v / s.u)


def _vehicle_angle(vehicle_index: int, s: CircularPatrolScenario) -> float:
    """Angle of a vehicle of the fleet, after checking its index."""
    if not 0 <= vehicle_index < s.n:
        raise ValueError("vehicle_index must lie in [0, n)")
    return TWO_PI * vehicle_index / s.n


def detects(psi: float, vehicle_index: int, s: CircularPatrolScenario) -> bool:
    """True iff the run launched at angle psi passes within r of vehicle
    vehicle_index at some time in [0, (R + r)/u]."""
    validate(s)
    beta = _vehicle_angle(vehicle_index, s)
    lo, length = _detection_arc(s)
    return (psi - beta - lo) % TWO_PI <= length


# ---- arc sets and probabilities ----

def detection_arc_set(vehicle_index: int,
                      s: CircularPatrolScenario) -> CircleIntervalSet:
    """Launch angles detected by one vehicle: a single arc (or the full
    circle), as a canonical arc set."""
    validate(s)
    beta = _vehicle_angle(vehicle_index, s)
    lo, length = _detection_arc(s)
    return CircleIntervalSet.from_intervals([(beta + lo, beta + lo + length)])


def exact_probability(s: CircularPatrolScenario) -> float:
    """Interception probability min(1, n*L/(2*pi)), L the length of one
    vehicle's arc: n equally spaced copies of one arc overlap only once they
    cover the circle."""
    validate(s)
    _, length = _detection_arc(s)
    return min(1.0, s.n * length / TWO_PI)


class _AnyVehicleIndicator:
    """psi ~ U[0, 2*pi); detect against the nearest vehicle.  Folding the
    angle modulo the fleet spacing 2*pi/n collapses all n vehicle arcs onto
    one."""

    n_draws = 1

    def __init__(self, s: CircularPatrolScenario):
        import numpy  # noqa: F401  loaded in the constructing thread

        self._lo, self._length = _detection_arc(s)
        self._period = TWO_PI / s.n

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags; computes in place, overwriting u."""
        import numpy as np

        x = u[:, 0]
        np.multiply(x, TWO_PI, out=x)
        np.subtract(x, self._lo, out=x)
        np.mod(x, self._period, out=x)
        return x <= self._length


def mc_probability(s: CircularPatrolScenario, trials: int, seed: int,
                   workers: int = 1) -> EstimateWithCI:
    """Monte Carlo interception probability over uniform launch angles,
    each tested against the arc of exact_probability."""
    validate(s)
    return run_bernoulli_trials(_AnyVehicleIndicator(s), trials,
                                SeedSchedule(seed), workers)


# ---- small-radius closed forms ----

@dataclass(frozen=True)
class AsymptoticSummary:
    """Small-r closed forms: chord_l, the image-curve length one scan circle
    blocks; p_asym, the capped detection probability; m_min, the least fleet
    size at which the cap is reached."""

    chord_l: float
    p_asym: float
    m_min: int


def minimum_fleet_size(per_vehicle: float) -> int:
    """Least m with m * per_vehicle >= 1, i.e. m = ceil(1/per_vehicle),
    guarded against float misrounding at integer boundaries."""
    if not per_vehicle > 0.0:
        raise ValueError("per_vehicle must be positive")
    m = max(1, math.ceil(1.0 / per_vehicle))
    if m > 1 and (m - 1) * per_vehicle >= 1.0:
        m -= 1
    if m * per_vehicle < 1.0:
        m += 1
    return m


def _sin_alpha(u: float, v: float) -> float:
    """sin(atan2(u, v)), which every closed form divides by; OverflowError
    where it underflows to 0."""
    sin_alpha = math.sin(math.atan2(u, v))
    if sin_alpha == 0.0:
        raise OverflowError("sin(alpha) underflows to 0 (v/u too large)")
    return sin_alpha


def _summary(chord: float, per_vehicle: float, n: int) -> AsymptoticSummary:
    """The closed-form record, or OverflowError where a value is inf."""
    if math.isinf(chord) or math.isinf(per_vehicle):
        raise OverflowError("closed form exceeds the float range")
    return AsymptoticSummary(chord_l=chord, p_asym=min(1.0, n * per_vehicle),
                             m_min=minimum_fleet_size(per_vehicle))


def asymptotic_summary(s: CircularPatrolScenario) -> AsymptoticSummary:
    """First-order summary for r << R.

    In the normalized image the intruder path is a straight line of
    inclination alpha = atan2(u, v), and one scan circle shadows a chord of
    angular length 2e/sin(alpha), e = r/R.  Uniform launch angle then gives
    p = min(1, n e / (pi sin alpha)) and m_min = ceil(pi sin alpha / e).
    """
    validate(s)
    e, sin_alpha = s.r / s.R, _sin_alpha(s.u, s.v)
    return _summary(2.0 * e / sin_alpha, e / math.pi / sin_alpha, s.n)
