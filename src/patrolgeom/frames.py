"""Coordinate geometry in the frame co-rotating with the fleet.

Covers angle wrapping, the polar image of a sensor's scan circle (exact and
small-ratio approximation), and the kinematics of a radially moving object
seen from the rotating frame.
"""

from __future__ import annotations

import math

from .scenario import (CircularPatrolScenario, _Record, _validate_as,
                       _vehicle_index)

__all__ = [
    "PolarPoint",
    "RotatingFramePoint",
    "TWO_PI",
    "distance_to_vehicle",
    "object_position_rotating",
    "scan_circle_polar_approx",
    "scan_circle_polar_exact",
    "wrap_positive",
]

TWO_PI = 2.0 * math.pi


class PolarPoint(_Record):
    """Point of the normalized polar image: rho_norm = rho/R >= 0 and
    phi in (-pi, pi]."""

    rho_norm: float
    phi: float


class RotatingFramePoint(_Record):
    """Point in the co-rotating frame: radius >= 0, angle in [0, 2*pi)."""

    radius: float
    angle: float


def _finite_angle(angle: float) -> float:
    """angle itself, or ValueError where it is inf or nan."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    return angle


def wrap_positive(angle: float) -> float:
    """Reduce a finite angle to [0, 2*pi)."""
    a = _finite_angle(angle) % TWO_PI
    # float round-off can push the remainder to exactly 2*pi
    return 0.0 if a >= TWO_PI else a


def _check_polar(r_over_R: float, psi: float) -> None:
    if not 0.0 < r_over_R < 1.0:
        raise ValueError("r_over_R must lie strictly between 0 and 1")
    _finite_angle(psi)


def scan_circle_polar_exact(r_over_R: float, psi: float) -> PolarPoint:
    """Exact polar image of a scan-circle point.

    The scan circle has radius r and center at distance R from the origin;
    psi parameterizes the circle so that psi = pi/2 is the point farthest
    from the origin.  With e = r/R:

        rho/R = sqrt(e^2 cos^2 psi + (1 + e sin psi)^2)
        phi   = atan2(e cos psi, 1 + e sin psi)
    """
    _check_polar(r_over_R, psi)
    e = r_over_R
    c = math.cos(psi)
    s = math.sin(psi)
    base = 1.0 + e * s
    return PolarPoint(rho_norm=math.sqrt(e * e * c * c + base * base),
                      phi=math.atan2(e * c, base))


def scan_circle_polar_approx(r_over_R: float, psi: float) -> PolarPoint:
    """First-order image of a scan-circle point: rho/R = 1 + e sin psi,
    phi = e cos psi.  The error against the exact image is O(e^2),
    uniformly in psi."""
    _check_polar(r_over_R, psi)
    e = r_over_R
    return PolarPoint(rho_norm=1.0 + e * math.sin(psi),
                      phi=e * math.cos(psi))


def _product(a: float, b: float, c: float = 1.0) -> float:
    """a*b/c with no overflow or underflow in between: the product of the
    mantissas, scaled by the exponents at the end.  OverflowError where the
    value itself leaves the float range."""
    (ma, ea), (mb, eb), (mc, ec) = map(math.frexp, (a, b, c))
    return math.ldexp(ma * mb / mc, ea + eb - ec)


def _run(psi: float, t: float,
         s: CircularPatrolScenario) -> tuple[float, float, float]:
    """(offset, rho, angle) of the run at time t, in units of R as in
    `circular`: offset = (radius - R)/R = e - delta and rho = radius/R, with
    e = r/R and delta = u*t/R, and the angle in the rotating frame.
    ValueError unless t is finite and in [0, (R + r)/u]."""
    _validate_as(s, CircularPatrolScenario)
    # (R + r)/u, also where R + r alone leaves the float range
    horizon = 2.0 * ((0.5 * s.R + 0.5 * s.r) / s.u)
    if not (0.0 <= t <= horizon and math.isfinite(t)):
        raise ValueError(f"t must lie in [0, {horizon!r}]")
    e, delta = s.r / s.R, _product(s.u, t, s.R)
    # fmod is exact, and reducing the drift first keeps psi's digits where
    # the drift is far above 2*pi
    drift = math.fmod(_product(s.v, t, s.R), TWO_PI)
    return (e - delta, max(0.0, (1.0 + e) - delta), wrap_positive(psi - drift))


def object_position_rotating(psi: float, t: float,
                             s: CircularPatrolScenario) -> RotatingFramePoint:
    """Object position at time t for the radial run started at angle psi on
    the circle of radius R + r.

    In the rotating frame the radius shrinks as R + r - u*t while the angle
    drifts backwards at the frame rate: angle(t) = psi - (v/R) t.  Valid for
    t in [0, (R + r)/u], the arrival time at the center.  OverflowError
    where the radius or the drift (v/R) t exceeds the float range.
    """
    _, rho, angle = _run(psi, t, s)
    return RotatingFramePoint(radius=_product(rho, s.R), angle=angle)


def _vehicle_angle(vehicle_index: int, s: CircularPatrolScenario) -> float:
    """Angle of a vehicle of the fleet, after checking its index."""
    return TWO_PI * _vehicle_index(vehicle_index, s.n) / s.n


def distance_to_vehicle(psi: float, t: float, vehicle_index: int,
                        s: CircularPatrolScenario) -> float:
    """Distance from the object to vehicle vehicle_index at time t.

    Vehicles are fixed in the rotating frame at radius R and angles
    2*pi*i/n.  Law of cosines on (radius, R, angle difference), written as
    (radius - R)^2 + 4*R*radius*sin^2(delta/2) so that it does not cancel
    when the object is near the vehicle's circle, and computed in units of
    R, so that only a distance beyond the float range is an OverflowError.
    """
    offset, rho, angle = _run(psi, t, s)
    beta = _vehicle_angle(vehicle_index, s)
    half = math.sin(0.5 * (angle - beta))
    return _product(math.sqrt(offset * offset + 4.0 * rho * half * half), s.R)
