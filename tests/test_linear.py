"""Segment patrol: folded positions, cylinder detection, exact closed forms."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patrolgeom import LinearPatrolScenario
from patrolgeom.linear import (CrossingSample, _indicator,
                               asymptotic_summary_linear, detects_linear,
                               mc_probability_linear, vehicle_position_linear)
from patrolgeom.montecarlo import SeedSchedule
from patrolgeom.scenario import ValidationError

from conftest import oracle_detects_linear, oracle_detects_linear_legs


def test_vehicle_position_turnaround(ref_linear):
    assert vehicle_position_linear(0, 0.0, 0.0, ref_linear) == 0.0
    assert vehicle_position_linear(0, 0.0, 50.0, ref_linear) == 100.0
    # past the far end the vehicle comes back: unfolded 110 folds to 90
    assert vehicle_position_linear(0, 0.0, 55.0, ref_linear) == \
        pytest.approx(90.0)
    assert vehicle_position_linear(0, 0.0, 100.0, ref_linear) == \
        pytest.approx(0.0)


def test_vehicle_position_spacing_and_range(ref_linear):
    assert vehicle_position_linear(1, 0.0, 0.0, ref_linear) == \
        pytest.approx(40.0)
    rng = np.random.default_rng(10)
    for _ in range(200):
        j = int(rng.integers(0, ref_linear.n))
        b = float(rng.uniform(0.0, 40.0))
        t = float(rng.uniform(0.0, 300.0))
        x = vehicle_position_linear(j, b, t, ref_linear)
        assert 0.0 <= x <= ref_linear.R


def test_vehicle_position_is_continuous_and_periodic(ref_linear):
    period = 2.0 * ref_linear.R / ref_linear.v
    for t in np.linspace(0.0, period, 97):
        x0 = vehicle_position_linear(0, 7.0, float(t), ref_linear)
        x1 = vehicle_position_linear(0, 7.0, float(t) + 1e-6, ref_linear)
        assert abs(x1 - x0) <= ref_linear.v * 1e-6 + 1e-9
        assert vehicle_position_linear(0, 7.0, float(t) + period,
                                       ref_linear) == pytest.approx(x0)


def test_vehicle_position_rejects_bad_index(ref_linear):
    with pytest.raises(ValueError):
        vehicle_position_linear(-1, 0.0, 0.0, ref_linear)
    with pytest.raises(ValueError):
        vehicle_position_linear(5, 0.0, 0.0, ref_linear)


@pytest.mark.parametrize("R, n, v, j, b, t, expected", [
    (1.7e308, 2, 1.0, 1, 1.7e308, 2e307, 2e307),  # the sum exceeds 1.8e308
    (100.0, 5, 1e300, 0, 0.0, 1e10, 0.0),  # v*t/2 overflows
])
def test_vehicle_position_stays_finite_where_the_sum_overflows(R, n, v, j, b, t,
                                                               expected):
    s = LinearPatrolScenario(R=R, r=1.0, n=n, v=v, u=1.0)
    assert vehicle_position_linear(j, b, t, s) == expected


@pytest.mark.parametrize("b, t", [(0.0, math.inf), (0.0, -math.inf),
                                  (0.0, math.nan), (math.inf, 0.0)])
def test_vehicle_position_rejects_nonfinite_time_and_phase(ref_linear, b, t):
    with pytest.raises(ValueError, match="b and t must be finite"):
        vehicle_position_linear(0, b, t, ref_linear)


def test_detects_linear_hit_and_miss():
    s = LinearPatrolScenario(R=100.0, r=1.0, n=1, v=2.0, u=1.0)
    # vehicle starts exactly where the intruder enters: tangent at t = 0
    assert detects_linear(CrossingSample(a=50.0, b=50.0), s)
    # vehicle half a cylinder away can close at most (u + v) * window
    assert not detects_linear(CrossingSample(a=50.0, b=150.0), s)


@pytest.mark.parametrize("fields", [
    dict(R=1e305, r=1e150, n=1, v=1e200, u=1e50),   # v*r overflows
    dict(R=1e305, r=1e-10, n=1, v=1e300, u=1e-10),  # v/u overflows
])
def test_detects_linear_where_speed_products_overflow(fields):
    # the axis crossing lies v*r/u = 1e300 past b - a, the reach is 1e300
    s = LinearPatrolScenario(**fields)
    assert detects_linear(CrossingSample(a=0.0, b=2e305 - 1e300), s)
    assert not detects_linear(CrossingSample(a=0.0, b=1e305), s)


def test_a_nan_shift_reads_as_the_reach():
    # v/u overflows to inf and r/R underflows to 0, so v/u*(r/R) is NaN;
    # the true shift v*r/(u*R) is the reach to within a factor 1 - (u/v)**2
    s = LinearPatrolScenario(R=1e300, r=1e-30, n=1, v=1e300, u=1e-300)
    # sin(alpha) underflows as well: the window saturates
    assert _indicator(s).exact() == 1.0
    assert detects_linear(CrossingSample(a=0.0, b=1e300), s)
    u = SeedSchedule(5).uniform_block(0, 1000, 2)
    assert np.all(_indicator(s).evaluate_batch(u))
    # sin(alpha) = 1e-310: the reach is 1e-20 of R, the window [-2e-20, 0]
    s = LinearPatrolScenario(R=1e300, r=1e-30, n=1, v=1e300, u=1e-10)
    assert _indicator(s).exact() == pytest.approx(1e-20)
    assert detects_linear(CrossingSample(a=1e280, b=0.0), s)
    assert not detects_linear(CrossingSample(a=3e280, b=0.0), s)


def test_positions_and_sample_ranges_where_2R_overflows():
    s = LinearPatrolScenario(R=1e308, r=1e306, n=2, v=1.0, u=1.0)
    # the unfolded coordinate 1.5e308 folds back to 2R - 1.5e308
    assert vehicle_position_linear(0, 0.0, 1.5e308, s) == \
        pytest.approx(0.5e308)
    assert vehicle_position_linear(1, 0.0, 0.0, s) == 1e308
    assert vehicle_position_linear(0, 0.0, 0.25e308, s) == \
        pytest.approx(0.25e308)
    # b = 2R/n is a lattice point; the shift 1e306 is within the reach
    assert detects_linear(CrossingSample(a=0.0, b=1e308), s)
    with pytest.raises(ValidationError, match="b must lie"):
        detects_linear(CrossingSample(a=0.0, b=1.5e308), s)


def test_detects_linear_validates_sample_ranges(ref_linear):
    with pytest.raises(ValidationError, match="a must lie"):
        detects_linear(CrossingSample(a=-0.1, b=0.0), ref_linear)
    with pytest.raises(ValidationError, match="a must lie"):
        detects_linear(CrossingSample(a=100.1, b=0.0), ref_linear)
    with pytest.raises(ValidationError, match="b must lie"):
        detects_linear(CrossingSample(a=0.0, b=40.1), ref_linear)


@pytest.mark.parametrize("R, n", [(5.0, 3), (0.3, 7), (3.0, 17)])
def test_detects_linear_accepts_b_at_the_end_of_its_range(R, n):
    # the caller's b = 2*R/n, divided by R, rounds above 2/n here
    s = LinearPatrolScenario(R=R, r=R / 100.0, n=n, v=2.0, u=1.0)
    b = 2 * R / n
    assert b / R > 2 / n
    assert detects_linear(CrossingSample(a=0.0, b=b), s) == \
        detects_linear(CrossingSample(a=0.0, b=0.0), s)


@pytest.mark.parametrize("R", [1e-300, 1.0, 1e308])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_detects_linear_agrees_with_the_mc_indicator(R, n):
    s = LinearPatrolScenario(R=R, r=0.1 * R / n, n=n, v=2.0, u=1.0)
    # one draw per trial, the offset b - a in units of R: the crossing
    # a = 0, b = u*2R/n
    u = SeedSchedule(77).uniform_block(0, 2000, 1)
    flags = _indicator(s).evaluate_batch(u.copy())
    assert 0 < np.count_nonzero(flags) < flags.size
    checked = 0
    for (ub,), flag in zip(u.tolist(), flags.tolist()):
        b = ub * (2.0 / n) * R
        if b == math.inf:  # 2R/n leaves the float range at R = 1e308, n = 1
            continue
        assert detects_linear(CrossingSample(a=0.0, b=b), s) == flag
        checked += 1
    assert checked >= 1500


def test_detects_linear_loads_no_numpy():
    # a fresh interpreter: this one has long since imported numpy
    probe = ("import sys\n"
             "from patrolgeom import LinearPatrolScenario\n"
             "from patrolgeom.linear import CrossingSample, detects_linear\n"
             "s = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)\n"
             "print(detects_linear(CrossingSample(a=50.0, b=30.0), s),"
             " 'numpy' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["True", "False"]


def test_detects_linear_matches_dense_oracle(ref_linear):
    rng = np.random.default_rng(4321)
    undecided = 0
    for _ in range(400):
        a = float(rng.uniform(0.0, ref_linear.R))
        b = float(rng.uniform(0.0, 2.0 * ref_linear.R / ref_linear.n))
        got = detects_linear(CrossingSample(a=a, b=b), ref_linear)
        want = oracle_detects_linear(a, b, ref_linear)
        if want is None:
            undecided += 1
        else:
            assert got == want
    assert undecided <= 4


def test_detects_linear_translation_invariance(ref_linear):
    # only the offset b - a matters, so a joint shift changes nothing
    rng = np.random.default_rng(6)
    delta = 0.3
    for _ in range(100):
        a = float(rng.uniform(0.0, ref_linear.R - delta))
        b = float(rng.uniform(0.0, 40.0 - delta))
        assert detects_linear(CrossingSample(a=a, b=b), ref_linear) == \
            detects_linear(CrossingSample(a=a + delta, b=b + delta),
                           ref_linear)


@pytest.mark.parametrize("fields, x, p_two", [
    ((100.0, 5.0, 5, 2.0, 1.0), 0.5590, 0.8055),
    ((100.0, 2.0, 3, 0.5, 1.0), 0.0671, 0.1297),
    ((100.0, 5.0, 10, 0.0, 1.0), 0.5000, 0.7500),
])
def test_the_per_leg_oracle_reads_the_two_image_probability(fields, x, p_two):
    # a physical crossing is detected by one of two cylinder images, at
    # offsets b - a and b + a, whose folds are independent and uniform, so
    # the detected fraction is p_two = 1 - (1 - x)^2 for the cylinder's x
    R, r, n, v, u = fields
    s = LinearPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    got_x = asymptotic_summary_linear(s).p_asym
    want = 1.0 - (1.0 - got_x) ** 2
    assert (got_x, want) == pytest.approx((x, p_two), abs=5e-5)
    trials = 10_000
    rng = np.random.default_rng(2024)
    a = rng.uniform(0.0, R, trials).tolist()
    b = rng.uniform(0.0, 2.0 * R / n, trials).tolist()
    hits = sum(map(oracle_detects_linear_legs, a, b, [s] * trials))
    error = 4.0 * math.sqrt(want * (1.0 - want) / trials) + 1.0 / trials
    assert abs(hits / trials - want) <= error
    if v > 0.0 and n == 5:  # the reference scenario
        assert hits / trials - got_x > 10.0 * error


@pytest.mark.parametrize("fields", [
    (100.0, 5.0, 5, 2.0, 1.0), (100.0, 5.0, 10, 0.0, 1.0),
    (10.0, 1.0, 1, 8.0, 1.0), (50.0, 3.0, 4, 20.0, 1.0),
    (100.0, 20.0, 2, 1.0, 3.0),
])
def test_the_per_leg_oracle_misses_no_crossing_a_dense_grid_detects(fields):
    # the grid folds the unrolled coordinate by itself; the distance moves
    # at most hypot(u, v) per unit time, so a crossing the oracle detects
    # lies within half a grid step of the scan radius on the grid.  The
    # vehicles turn up to three times in the window, and at (50, 3, 4, 20, 1)
    # every crossing is detected.
    R, r, n, v, u = fields
    s = LinearPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    t = np.linspace(0.0, 2.0 * r / u, 4001)
    slack = 0.5 * math.hypot(u, v) * (t[1] - t[0])
    rng = np.random.default_rng(99)
    detected = 0
    for _ in range(200):
        a, b = rng.uniform(0.0, R), rng.uniform(0.0, 2.0 * R / n)
        c = (b + (2.0 * R / n) * np.arange(n)[:, None] + v * t) % (2.0 * R)
        dx = np.minimum(c, 2.0 * R - c) - a
        dmin = float(np.sqrt(dx * dx + (r - u * t) ** 2).min())
        got = oracle_detects_linear_legs(float(a), float(b), s)
        if dmin <= r:
            assert got
        if got:
            assert dmin - slack <= r
        detected += got
    assert detected > 0


def test_asymptotic_summary_reference_values(ref_linear):
    summary = asymptotic_summary_linear(ref_linear)
    assert summary.chord_l == pytest.approx(22.360679774997898, abs=1e-12)
    assert summary.p_asym == pytest.approx(0.5590169943749475, abs=1e-15)
    assert summary.m_min == 9


def test_asymptotic_summary_equal_speeds():
    s = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=1.0, u=1.0)
    summary = asymptotic_summary_linear(s)
    sin_alpha = math.sin(math.pi / 4.0)
    assert summary.p_asym == pytest.approx(5.0 * 5.0 / (100.0 * sin_alpha),
                                           abs=1e-12)


def test_asymptotic_probability_caps_at_one():
    s = LinearPatrolScenario(R=100.0, r=5.0, n=9, v=2.0, u=1.0)
    assert asymptotic_summary_linear(s).p_asym == 1.0
    s = LinearPatrolScenario(R=100.0, r=5.0, n=8, v=2.0, u=1.0)
    assert asymptotic_summary_linear(s).p_asym < 1.0


def test_mc_matches_asymptotic_at_any_scale():
    # on the cylinder the chord formula is exact for every r, so the sampled
    # estimate should sit within noise of it at all three scales
    for r in (5.0, 2.0, 1.0):
        s = LinearPatrolScenario(R=100.0, r=r, n=5, v=2.0, u=1.0)
        expected = asymptotic_summary_linear(s).p_asym
        est = mc_probability_linear(s, 100_000, seed=12)
        assert abs(est.mean - expected) < 4.0 * est.stderr


@pytest.mark.parametrize("fields", [
    dict(R=1e308, r=1e306, n=1, v=1.0, u=1.0),
    dict(R=1.5e308, r=1e306, n=1, v=1.0, u=1.0),
    # shift v*r/u = 7e307: b - a + shift would leave the float range on a
    # lattice only halved
    dict(R=1.7e308, r=3.5e307, n=1, v=2.0, u=1.0),
])
def test_mc_matches_asymptotic_where_2R_overflows(fields):
    s = LinearPatrolScenario(**fields)
    trials = 100_000
    expected = asymptotic_summary_linear(s).p_asym
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_probability_linear(s, trials, seed=31)
    assert abs(est.mean - expected) <= 4.0 * est.stderr + 1.0 / trials


def test_mc_successes_monotone_in_scan_radius():
    # same seed means identical (a, b) draws, so detection events nest
    counts = []
    for r in (1.0, 2.0, 5.0):
        s = LinearPatrolScenario(R=100.0, r=r, n=5, v=2.0, u=1.0)
        counts.append(mc_probability_linear(s, 20_000, seed=8).successes)
    assert counts == sorted(counts)


def test_mc_probability_grows_with_fleet_size():
    means = []
    for n in (1, 2, 4):
        s = LinearPatrolScenario(R=100.0, r=5.0, n=n, v=2.0, u=1.0)
        means.append(mc_probability_linear(s, 50_000, seed=2).mean)
    assert means == sorted(means)
    assert means[0] == pytest.approx(
        asymptotic_summary_linear(
            LinearPatrolScenario(R=100.0, r=5.0, n=1, v=2.0, u=1.0)).p_asym,
        abs=0.01)


def test_mc_linear_deterministic_across_workers(ref_linear):
    a = mc_probability_linear(ref_linear, 30_000, seed=1)
    b = mc_probability_linear(ref_linear, 30_000, seed=1, workers=4)
    assert a == b


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.floats(-300.0, 307.0), st.floats(-320.0, math.log10(0.49)),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 9)),
       st.one_of(st.just(-math.inf), st.floats(-300.0, 300.0)),
       st.floats(-300.0, 300.0))
def test_the_segment_record_reads_its_closed_form(log_R, log_e, n, log_v,
                                                  log_u):
    # the record's exact sum min(1, n*length/2) and the closed form
    # min(1, n*reach/R) are one number wherever the window is a chord,
    # and a saturated window, 2*min(reach, period) and so at least one
    # period long, reads 1 as the closed form
    R = 10.0 ** log_R
    r = R * 10.0 ** log_e
    assume(0.0 < r and 2.0 * r < R)
    s = LinearPatrolScenario(R=R, r=r, n=n, v=10.0 ** log_v, u=10.0 ** log_u)
    try:
        p_asym = asymptotic_summary_linear(s).p_asym
    except OverflowError:
        return  # the share's m_min leaves the float range
    assert _indicator(s).exact() == p_asym
