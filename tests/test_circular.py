"""Circular patrol: arc sets, certified detection, exact and sampled laws."""

import math
from fractions import Fraction

import numpy as np
import pytest

from patrolgeom import CircularPatrolScenario
from patrolgeom.circular import (CircleIntervalSet, asymptotic_summary,
                                 detection_arc_set, detects, exact_probability,
                                 mc_probability, minimum_fleet_size,
                                 union_measure)
from patrolgeom.montecarlo import SeedSchedule
from patrolgeom.scenario import ValidationError

from conftest import TWO_PI, oracle_detects_circular, sweep_union_measure


# ---- interval sets ----

def test_interval_set_canonicalization_basics():
    assert CircleIntervalSet.from_intervals([]).intervals == ()
    assert CircleIntervalSet.from_intervals([(1.0, 0.5)]).intervals == ()
    one = CircleIntervalSet.from_intervals([(0.5, 1.0)])
    assert one.intervals == ((0.5, 1.0),)
    assert one.measure() == pytest.approx(0.5, abs=1e-15)


def test_interval_set_merges_touching_and_overlapping_arcs():
    merged = CircleIntervalSet.from_intervals([(0.0, 1.0), (1.0, 2.0)])
    assert merged.intervals == ((0.0, 2.0),)
    merged = CircleIntervalSet.from_intervals([(1.0, 2.0), (0.0, 1.5)])
    assert merged.intervals == ((0.0, 2.0),)


def test_interval_set_wraps_and_stitches_across_zero():
    wrapped = CircleIntervalSet.from_intervals([(-0.5, 0.5)])
    assert len(wrapped.intervals) == 1
    start, end = wrapped.intervals[0]
    assert start == pytest.approx(TWO_PI - 0.5)
    assert end == pytest.approx(TWO_PI + 0.5)
    assert wrapped.measure() == pytest.approx(1.0, abs=1e-12)
    # one arc from 2*pi - 0.5 past 2*pi: it holds angles 0 and +-0.49, and
    # not 0.51 or pi
    assert wrapped.intervals == ((TWO_PI - 0.5, (TWO_PI - 0.5) + 1.0),)


def test_interval_set_full_circle_forms():
    assert CircleIntervalSet.from_intervals([(0.0, 10.0)]).intervals == \
        ((0.0, TWO_PI),)
    halves = CircleIntervalSet.from_intervals([(0.0, math.pi),
                                               (math.pi, TWO_PI)])
    assert halves.intervals == ((0.0, TWO_PI),)
    assert halves.measure() == TWO_PI


def test_interval_set_shift_preserves_measure():
    base = CircleIntervalSet.from_intervals([(0.2, 0.9), (3.0, 3.4)])
    for delta in (0.0, 1.0, -2.5, 6.0, TWO_PI):
        assert base.shifted(delta).measure() == pytest.approx(
            base.measure(), abs=1e-12)
    round_trip = base.shifted(TWO_PI).intervals
    assert len(round_trip) == len(base.intervals)
    for (s1, e1), (s2, e2) in zip(round_trip, base.intervals):
        assert s1 == pytest.approx(s2, abs=1e-12)
        assert e1 == pytest.approx(e2, abs=1e-12)
    full = CircleIntervalSet.from_intervals([(0.0, TWO_PI)])
    assert full.shifted(1.0) is full


def test_union_measure_equally_spaced_example():
    arcs = [CircleIntervalSet.from_intervals([(k * math.pi / 2.0,
                                               k * math.pi / 2.0 + 0.1)])
            for k in range(4)]
    assert union_measure(arcs) == pytest.approx(0.4 / TWO_PI, abs=1e-12)


def test_union_measure_saturates_at_full_circle():
    arcs = [CircleIntervalSet.from_intervals([(k * 0.5, k * 0.5 + 2.0)])
            for k in range(13)]
    assert union_measure(arcs) == pytest.approx(1.0, abs=1e-12)


def test_union_measure_matches_event_sweep_oracle():
    rng = np.random.default_rng(99)
    for _ in range(300):
        count = int(rng.integers(1, 12))
        raw = [(float(rng.uniform(-10.0, 10.0)), 0.0) for _ in range(count)]
        raw = [(a, a + float(rng.uniform(0.0, 3.0))) for a, _ in raw]
        mine = union_measure([CircleIntervalSet.from_intervals([arc])
                              for arc in raw])
        want = sweep_union_measure(raw) / TWO_PI
        assert mine == pytest.approx(want, abs=1e-12)


# ---- certified detection ----

def test_detects_static_boundary(static_circular):
    half = math.asin(0.05)
    assert detects(half - 0.001, 0, static_circular)
    assert not detects(half + 0.001, 0, static_circular)
    assert detects(0.0, 0, static_circular)


def test_detects_matches_dense_oracle(ref_circular):
    rng = np.random.default_rng(1234)
    undecided = 0
    for _ in range(400):
        psi = float(rng.uniform(0.0, TWO_PI))
        got = any(detects(psi, i, ref_circular)
                  for i in range(ref_circular.n))
        want = oracle_detects_circular(psi, ref_circular)
        if want is None:
            undecided += 1
        else:
            assert got == want
    assert undecided <= 4


def test_detects_fast_rotation_catches_everything():
    # the frame spins through many turns while the object crosses the
    # annulus, so even a single vehicle sweeps every launch angle
    s = CircularPatrolScenario(R=100.0, r=5.0, n=1, v=20.0, u=0.03)
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert detects(float(rng.uniform(0.0, TWO_PI)), 0, s)


# ---- arc extraction and the exact law ----

def test_static_arc_set_is_one_arc_centered_on_the_vehicle(static_circular):
    arcs = detection_arc_set(0, static_circular)
    assert len(arcs.intervals) == 1
    assert arcs.measure() == pytest.approx(2.0 * math.asin(0.05), abs=1e-6)
    start, end = arcs.intervals[0]
    center = (0.5 * (start + end)) % TWO_PI
    assert min(center, TWO_PI - center) < 1e-6


def test_arc_set_rotation_equivariance(ref_circular):
    base = detection_arc_set(0, ref_circular)
    spacing = TWO_PI / ref_circular.n
    for i in (1, 3, 7):
        direct = detection_arc_set(i, ref_circular)
        rotated = base.shifted(spacing * i)
        assert direct.measure() == pytest.approx(rotated.measure(), abs=1e-8)
        assert len(direct.intervals) == len(rotated.intervals) == 1
        for want, got in zip(direct.intervals[0], rotated.intervals[0]):
            gap = (got - want) % TWO_PI
            assert min(gap, TWO_PI - gap) <= 1e-12


def test_arc_set_full_circle_when_rotation_dominates():
    s = CircularPatrolScenario(R=100.0, r=5.0, n=1, v=20.0, u=0.03)
    arcs = detection_arc_set(0, s)
    assert arcs.intervals == ((0.0, TWO_PI),)


def test_arc_set_full_circle_when_speed_ratio_overflows_the_arc():
    # w = v/u is finite, but w * 2r/R overflows to inf
    s = CircularPatrolScenario(R=1.0, r=0.9, n=1, v=1.5e308, u=1.0)
    assert detection_arc_set(0, s).intervals == ((0.0, TWO_PI),)
    assert exact_probability(s) == 1.0
    assert detects(1.0, 0, s)


def test_subnormal_scan_ratio_reads_the_limit_arc():
    # e = r/R = 1e-320 is subnormal and w = v/u = 1e310 overflows, yet the
    # arc, 2e*sqrt(1 + w*w) to within e*e, is 2e-10 long
    s = CircularPatrolScenario(R=1.0, r=1e-320, n=1, v=1e300, u=1e-10)
    length = float(2 * Fraction(s.r) * Fraction(s.v) / Fraction(s.u))
    assert length == pytest.approx(2e-10, rel=1e-4)
    assert exact_probability(s) == pytest.approx(length / TWO_PI, rel=1e-15)
    assert detection_arc_set(0, s).intervals == ((0.0, pytest.approx(
        length, rel=1e-15)),)
    assert detects(0.0, 0, s) and not detects(3.0, 0, s)
    assert mc_probability(s, 1000, seed=0).successes == 0


def test_vanishing_scan_ratio_with_infinite_speed_ratio_is_the_full_circle():
    # e = 5e-324/1e10 underflows to 0 and w = 1e600 overflows: 2e*w = 1e267
    s = CircularPatrolScenario(R=1e10, r=5e-324, n=1, v=1e300, u=1e-300)
    assert exact_probability(s) == 1.0
    assert detection_arc_set(0, s).intervals == ((0.0, TWO_PI),)
    assert detects(3.0, 0, s)
    assert mc_probability(s, 1000, seed=0).mean == 1.0


def test_exact_probability_static_closed_form(static_circular):
    expected = 10.0 * math.asin(0.05) / math.pi
    assert exact_probability(static_circular) == pytest.approx(expected,
                                                               abs=1e-6)


def test_exact_probability_equals_scaled_single_arc(ref_circular):
    # reference arcs are shorter than the fleet spacing, so the union is n
    # disjoint copies and the probability is n times one arc measure
    base = detection_arc_set(0, ref_circular)
    assert base.measure() < TWO_PI / ref_circular.n
    p = exact_probability(ref_circular)
    assert p == pytest.approx(ref_circular.n * base.measure() / TWO_PI,
                              abs=1e-9)


def test_exact_probability_monotone_in_radius_and_fleet():
    values = [exact_probability(CircularPatrolScenario(100.0, r, 10, 2.0, 1.0))
              for r in (1.0, 2.0, 5.0, 10.0)]
    assert values == sorted(values)
    values = [exact_probability(CircularPatrolScenario(100.0, 5.0, n, 2.0, 1.0))
              for n in (1, 2, 5, 10)]
    assert values == sorted(values)


# ---- Monte Carlo against the exact law ----

def test_mc_probability_within_interval_of_exact(ref_circular):
    p = exact_probability(ref_circular)
    est = mc_probability(ref_circular, 100_000, seed=0)
    assert abs(est.mean - p) < 4.0 * est.stderr
    assert est.trials == 100_000


def test_mc_probability_deterministic_across_workers(ref_circular):
    a = mc_probability(ref_circular, 50_000, seed=3)
    b = mc_probability(ref_circular, 50_000, seed=3, workers=4)
    assert a == b


def test_mc_indicator_agrees_with_scalar_detects(ref_circular):
    # replay the first trials by hand: one uniform draw yields psi, and the
    # estimator must match an explicit any-vehicle scan at that psi
    trials = 200
    sched = SeedSchedule(42)
    manual = 0
    for i in range(trials):
        u = sched.uniform_block(i, i + 1, 1)[0, 0]
        psi = u * TWO_PI
        manual += any(detects(psi, k, ref_circular)
                      for k in range(ref_circular.n))
    est = mc_probability(ref_circular, trials, seed=42)
    assert est.successes == manual


def test_mc_probability_vanishing_radius_never_detects():
    s = CircularPatrolScenario(R=100.0, r=1e-7, n=10, v=2.0, u=1.0)
    est = mc_probability(s, 10_000, seed=1)
    assert est.mean == 0.0


# ---- small-radius closed forms ----

def test_asymptotic_summary_reference_values(ref_circular):
    summary = asymptotic_summary(ref_circular)
    sin_alpha = 1.0 / math.sqrt(5.0)
    assert summary.chord_l == pytest.approx(2.0 * 5.0 / (100.0 * sin_alpha),
                                            abs=1e-15)
    assert summary.p_asym == pytest.approx(0.3558812717085885, abs=1e-12)
    assert summary.m_min == 29


def test_asymptotic_summary_static_ring(static_circular):
    summary = asymptotic_summary(static_circular)
    assert summary.p_asym == pytest.approx(0.5 / math.pi, abs=1e-15)
    assert summary.chord_l == pytest.approx(0.1, abs=1e-15)


def test_asymptotic_probability_caps_at_one(ref_circular):
    s = CircularPatrolScenario(R=100.0, r=5.0, n=29, v=2.0, u=1.0)
    assert asymptotic_summary(s).p_asym == 1.0
    s = CircularPatrolScenario(R=100.0, r=5.0, n=28, v=2.0, u=1.0)
    assert asymptotic_summary(s).p_asym < 1.0


def test_minimum_fleet_size_is_the_exact_threshold():
    rng = np.random.default_rng(17)
    for _ in range(200):
        per_vehicle = float(rng.uniform(0.001, 1.5))
        m = minimum_fleet_size(per_vehicle)
        assert m >= 1
        assert m * per_vehicle >= 1.0 - 1e-12
        if m > 1:
            assert (m - 1) * per_vehicle < 1.0


@pytest.mark.parametrize("per_vehicle,want", [
    # ceil(1/pv) = 397899, but 397899 * pv rounds to 0.9999999999999999
    (2.5132005860783765e-06, 397_900),
    # ceil(1/pv) = 9007199254740996, but (that - 1) * pv >= 1 in floats
    (1.1102230246251562e-16, 9_007_199_254_740_995),
])
def test_minimum_fleet_size_guards_float_misrounding(per_vehicle, want):
    m = minimum_fleet_size(per_vehicle)
    assert m == want != math.ceil(1.0 / per_vehicle)
    assert m * per_vehicle >= 1.0 > (m - 1) * per_vehicle


@pytest.mark.parametrize("per_vehicle", [0.0, -1.0, math.nan])
def test_minimum_fleet_size_rejects_a_nonpositive_share(per_vehicle):
    with pytest.raises(ValueError, match="^per_vehicle must be positive$"):
        minimum_fleet_size(per_vehicle)


def test_asymptotic_matches_exact_for_small_radius():
    s = CircularPatrolScenario(R=100.0, r=0.5, n=1, v=2.0, u=1.0)
    summary = asymptotic_summary(s)
    p = exact_probability(s)
    assert abs(p - summary.p_asym) / summary.p_asym < 1e-3


def test_closed_form_share_rounds_once_where_r_over_R_is_subnormal():
    # e = 1e-320 and sin(alpha) = 1e-310 are subnormal: e/pi would round
    # in the subnormal range, by 4e-4 of itself, before the division
    # by sin(alpha)
    s = CircularPatrolScenario(R=1.0, r=1e-320, n=1, v=1e300, u=1e-10)
    summary = asymptotic_summary(s)
    sin_alpha = math.sin(math.atan2(s.u, s.v))
    want = Fraction(s.r) / (Fraction(math.pi) * Fraction(sin_alpha))
    assert summary.p_asym == pytest.approx(float(want), rel=1e-15, abs=0.0)
    assert summary.p_asym == pytest.approx(summary.chord_l / TWO_PI,
                                           rel=1e-15, abs=0.0)
    assert summary.m_min == math.ceil(1 / want)


# ---- validation plumbing ----

def test_exact_probability_validates_scenario():
    with pytest.raises(ValidationError, match="r < R required"):
        exact_probability(CircularPatrolScenario(10.0, 10.0, 1, 1.0, 1.0))
    with pytest.raises(ValidationError, match="n must be a positive integer"):
        mc_probability(CircularPatrolScenario(10.0, 1.0, 0, 1.0, 1.0),
                       100, seed=0)
