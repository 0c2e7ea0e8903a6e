"""Rotating-frame kinematics and the normalized polar image of a scan circle."""

import math

import numpy as np
import pytest

from patrolgeom import CircularPatrolScenario
from patrolgeom.circular import CircleIntervalSet, detects
from patrolgeom.frames import (TWO_PI, distance_to_vehicle,
                               object_position_rotating,
                               scan_circle_polar_approx,
                               scan_circle_polar_exact, wrap_positive)


def test_wrap_positive_lands_in_full_turn_range():
    assert wrap_positive(0.0) == 0.0
    assert wrap_positive(TWO_PI) == 0.0
    # -1e-17 % (2*pi) rounds to 2*pi itself, which wraps to 0
    assert wrap_positive(-1e-17) == 0.0
    assert wrap_positive(-0.25) == pytest.approx(TWO_PI - 0.25)
    assert wrap_positive(7.9) == pytest.approx(7.9 - TWO_PI)
    for k in range(-5, 6):
        a = wrap_positive(2.5 + k * TWO_PI)
        assert a == pytest.approx(2.5, abs=1e-11)
        assert 0.0 <= a < TWO_PI


def test_polar_exact_cardinal_points():
    top = scan_circle_polar_exact(0.1, math.pi / 2.0)
    assert top.rho_norm == pytest.approx(1.1, abs=1e-15)
    assert top.phi == pytest.approx(0.0, abs=1e-15)
    bottom = scan_circle_polar_exact(0.1, -math.pi / 2.0)
    assert bottom.rho_norm == pytest.approx(0.9, abs=1e-15)
    assert bottom.phi == pytest.approx(0.0, abs=1e-15)
    side = scan_circle_polar_exact(0.1, 0.0)
    assert side.rho_norm == pytest.approx(1.004987562112089, abs=1e-15)
    assert side.phi == pytest.approx(0.09966865249116204, abs=1e-15)


def test_polar_approx_cardinal_points():
    top = scan_circle_polar_approx(0.1, math.pi / 2.0)
    assert top.rho_norm == pytest.approx(1.1, abs=1e-15)
    assert top.phi == pytest.approx(0.0, abs=1e-15)
    side = scan_circle_polar_approx(0.1, 0.0)
    assert side.rho_norm == 1.0
    assert side.phi == pytest.approx(0.1, abs=1e-15)


def test_polar_approx_error_is_second_order():
    psis = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
    worst = {}
    for e in (0.2, 0.1, 0.01):
        err = 0.0
        for psi in psis:
            exact = scan_circle_polar_exact(e, float(psi))
            approx = scan_circle_polar_approx(e, float(psi))
            err = max(err, abs(exact.rho_norm - approx.rho_norm),
                      abs(exact.phi - approx.phi))
        worst[e] = err
        assert err <= e * e
    # halving the ratio should cut the error superlinearly
    assert worst[0.01] < worst[0.1] / 10.0


def test_polar_projections_reject_bad_ratio():
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            scan_circle_polar_exact(bad, 0.0)
        with pytest.raises(ValueError):
            scan_circle_polar_approx(bad, 0.0)


def test_object_position_start_and_descent(ref_circular):
    start = object_position_rotating(0.3, 0.0, ref_circular)
    assert start.radius == pytest.approx(105.0)
    assert start.angle == pytest.approx(0.3)
    later = object_position_rotating(0.0, 10.0, ref_circular)
    assert later.radius == pytest.approx(95.0)
    assert later.angle == pytest.approx(TWO_PI - 0.2)
    end = object_position_rotating(0.0, 105.0, ref_circular)
    assert end.radius == 0.0


def test_object_position_keeps_the_launch_angle_past_a_huge_drift():
    # the drift (v/R) t = 5e19 rad is far above 2**53; reduced mod 2*pi
    # before psi is subtracted, it leaves psi's digits in the angle
    s = CircularPatrolScenario(R=1.0, r=0.1, n=10, v=1e20, u=1.0)
    angles = [object_position_rotating(psi, 0.5, s).angle
              for psi in (0.0, 0.5, 1.0, 2.0)]
    assert len(set(angles)) == 4
    for psi, angle in zip((0.5, 1.0, 2.0), angles[1:]):
        assert angle == pytest.approx(wrap_positive(angles[0] + psi),
                                      abs=1e-12)


def test_object_position_rejects_times_outside_the_run(ref_circular):
    with pytest.raises(ValueError):
        object_position_rotating(0.0, -0.001, ref_circular)
    with pytest.raises(ValueError):
        object_position_rotating(0.0, 105.001, ref_circular)


def test_distance_to_vehicle_reference_values(static_circular):
    # straight radial run over vehicle 0: distance is |rho - R|
    assert distance_to_vehicle(0.0, 0.0, 0, static_circular) == pytest.approx(5.0)
    assert distance_to_vehicle(0.0, 5.0, 0, static_circular) == pytest.approx(0.0)
    # same radius as the vehicle but 0.1 rad away: a chord of the R-circle
    d = distance_to_vehicle(0.1, 5.0, 0, static_circular)
    assert d == pytest.approx(200.0 * math.sin(0.05), abs=1e-9)
    assert d == pytest.approx(9.995833854135666, abs=1e-9)


def test_distance_to_vehicle_does_not_cancel_at_tiny_radius():
    s = CircularPatrolScenario(R=100.0, r=1e-5, n=1, v=0.0, u=1.0)
    # launched straight over the vehicle: the distance is exactly r
    assert distance_to_vehicle(0.0, 0.0, 0, s) == pytest.approx(
        1e-5, rel=1e-9, abs=0.0)
    # on the vehicle's circle, 1e-7 rad away: a chord of the R-circle
    d = distance_to_vehicle(1e-7, 1e-5, 0, s)
    assert d == pytest.approx(200.0 * math.sin(0.5e-7), rel=1e-9, abs=0.0)


def test_distance_to_vehicle_index_validation(ref_circular):
    with pytest.raises(ValueError):
        distance_to_vehicle(0.0, 0.0, -1, ref_circular)
    with pytest.raises(ValueError):
        distance_to_vehicle(0.0, 0.0, 10, ref_circular)


def test_distance_shift_equivariance(ref_circular):
    # rotating the start by one fleet spacing relabels the nearest vehicle
    spacing = TWO_PI / ref_circular.n
    rng = np.random.default_rng(7)
    for _ in range(50):
        psi = float(rng.uniform(0.0, TWO_PI))
        t = float(rng.uniform(0.0, 105.0))
        i = int(rng.integers(0, ref_circular.n - 1))
        d1 = distance_to_vehicle(psi, t, i, ref_circular)
        d2 = distance_to_vehicle(psi + spacing, t, i + 1, ref_circular)
        assert d2 == pytest.approx(d1, abs=1e-9)


def test_distance_mirror_symmetry_for_static_ring(static_circular):
    # with no fleet motion the geometry is symmetric about each vehicle
    rng = np.random.default_rng(8)
    for _ in range(50):
        delta = float(rng.uniform(0.0, 0.3))
        t = float(rng.uniform(0.0, 50.0))
        d1 = distance_to_vehicle(delta, t, 0, static_circular)
        d2 = distance_to_vehicle(-delta, t, 0, static_circular)
        assert d2 == pytest.approx(d1, abs=1e-9)


_ANGLE_ENTRY_POINTS = {
    "detects": lambda a, s: detects(a, 0, s),
    "object_position_rotating": lambda a, s: object_position_rotating(a, 0.0, s),
    "distance_to_vehicle": lambda a, s: distance_to_vehicle(a, 1.0, 0, s),
    "wrap_positive": lambda a, s: wrap_positive(a),
    "from_intervals": lambda a, s: CircleIntervalSet.from_intervals([(a, a)]),
    "from_intervals_end": lambda a, s: CircleIntervalSet.from_intervals([(0.0, a)]),
    "from_intervals_start": lambda a, s: CircleIntervalSet.from_intervals([(a, 0.0)]),
    "scan_circle_polar_exact": lambda a, s: scan_circle_polar_exact(0.1, a),
    "scan_circle_polar_approx": lambda a, s: scan_circle_polar_approx(0.1, a),
}


@pytest.mark.parametrize("entry", sorted(_ANGLE_ENTRY_POINTS))
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
def test_non_finite_angle_is_an_error(ref_circular, entry, angle):
    with pytest.raises(ValueError, match="^angle must be finite, got "):
        _ANGLE_ENTRY_POINTS[entry](angle, ref_circular)


@pytest.mark.parametrize("R", [1e155, 1e300])
def test_kinematics_scale_with_R_where_its_square_overflows(R):
    # lengths in units of R: R*rho and (rho - R)^2 leave the float range
    # here, while every distance stays finite
    unit = CircularPatrolScenario(R=1.0, r=0.05, n=7, v=2.0, u=1.0)
    s = CircularPatrolScenario(R=R, r=0.05 * R, n=7, v=2.0, u=1.0)
    for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
        for psi in (0.0, 0.3, 1.0, 2.5, 4.0):
            for i in (0, 3):
                want = distance_to_vehicle(psi, fraction * 1.05, i, unit)
                got = distance_to_vehicle(psi, fraction * 1.05 * R, i, s) / R
                assert abs(got - want) <= 4 * math.ulp(want)
            want = object_position_rotating(psi, fraction * 1.05, unit)
            got = object_position_rotating(psi, fraction * 1.05 * R, s)
            assert abs(got.radius / R - want.radius) <= 4 * math.ulp(1.0)
            assert got.angle == pytest.approx(want.angle, rel=1e-15)
    assert distance_to_vehicle(0.0, 0.0, 0, s) == pytest.approx(
        0.05 * R, rel=1e-15, abs=0.0)


def test_only_lengths_beyond_the_float_range_overflow():
    s = CircularPatrolScenario(R=1.7e308, r=0.9e308, n=2, v=0.0, u=1.0)
    # the launch circle's radius R + r exceeds the float range
    with pytest.raises(OverflowError):
        object_position_rotating(0.0, 0.0, s)
    assert object_position_rotating(0.0, 0.9e308, s).radius == \
        pytest.approx(1.7e308, rel=1e-15)
    # straight over vehicle 0 the distance is r; vehicle 1 is 2R + r away
    assert distance_to_vehicle(0.0, 0.0, 0, s) == pytest.approx(0.9e308,
                                                                rel=1e-15)
    with pytest.raises(OverflowError):
        distance_to_vehicle(0.0, 0.0, 1, s)
