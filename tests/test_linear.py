"""Segment patrol: folded positions, cylinder detection, exact closed forms."""

import math

import numpy as np
import pytest

from patrolgeom import LinearPatrolScenario
from patrolgeom.linear import (CrossingSample, asymptotic_summary_linear,
                               detects_linear, mc_probability_linear,
                               vehicle_position_linear)
from patrolgeom.scenario import ValidationError

from conftest import oracle_detects_linear


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


def test_detects_linear_validates_sample_ranges(ref_linear):
    with pytest.raises(ValidationError, match="a must lie"):
        detects_linear(CrossingSample(a=-0.1, b=0.0), ref_linear)
    with pytest.raises(ValidationError, match="a must lie"):
        detects_linear(CrossingSample(a=100.1, b=0.0), ref_linear)
    with pytest.raises(ValidationError, match="b must lie"):
        detects_linear(CrossingSample(a=0.0, b=40.1), ref_linear)


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
