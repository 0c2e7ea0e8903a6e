"""Randomized patrol radius: convexity inequality, estimators, time averages."""

import math
from fractions import Fraction

import numpy as np
import pytest

from patrolgeom import CircularPatrolScenario, circular
from patrolgeom.circular import (TWO_PI, _detection_arc, exact_probability,
                                 mc_probability)
from patrolgeom.montecarlo import SeedSchedule
from patrolgeom.randomradius import (PiecewiseRadiusProcess, RadiusDistribution,
                                     _indicator,
                                     asymptotic_probability_randomized,
                                     ergodic_time_average,
                                     exact_probability_random_radius,
                                     jensen_sides, mc_probability_random_radius,
                                     validate_process)
from patrolgeom.scenario import ValidationError

TWO_POINT = [(0.9, 0.5), (1.1, 0.5)]


def _random_mean_one_distribution(rng) -> RadiusDistribution:
    m = int(rng.integers(2, 5))
    weights = rng.uniform(0.2, 1.0, m)
    weights /= math.fsum(weights)
    ks = rng.uniform(0.3, 3.0, m)
    ks /= math.fsum(w * k for w, k in zip(weights, ks))
    return RadiusDistribution.from_atoms(list(zip(ks.tolist(),
                                                  weights.tolist())))


def test_from_atoms_validation():
    with pytest.raises(ValidationError, match="at least one atom"):
        RadiusDistribution.from_atoms([])
    with pytest.raises(ValidationError, match="multipliers must be positive"):
        RadiusDistribution.from_atoms([(0.0, 1.0)])
    with pytest.raises(ValidationError, match="weights must be positive"):
        RadiusDistribution.from_atoms([(1.0, 0.0)])
    with pytest.raises(ValidationError, match="weights must sum to 1"):
        RadiusDistribution.from_atoms([(1.0, 0.6), (1.0, 0.5)])
    with pytest.raises(ValidationError, match="mean must equal 1"):
        RadiusDistribution.from_atoms([(0.9, 0.5), (1.3, 0.5)])
    with pytest.raises(ValidationError, match="straddle 1"):
        RadiusDistribution.from_atoms([(1 + 1e-13, 1.0)])


@pytest.mark.parametrize("atoms", [
    5,
    True,
    "[[0.9, 0.5], [1.1, 0.5]]",
    {"0.9": 0.5, "1.1": 0.5},
    [0.9, 1.1],
    [[1.0]],
    [[0.9, 0.5, 0.0], [1.1, 0.5, 0.0]],
    [[None, 1.0]],
    [[1.0, None]],
    [["1", 1.0]],
    [[True, 1.0]],
    [[1.0, [1.0]]],
    [[10 ** 400, 1.0]],
    [[1.0, 10 ** 400]],
    # mean one within 1e-12, but the support does not straddle 1
    [[1 + 1e-13, 1.0]],
])
def test_from_atoms_rejects_malformed_input(atoms):
    with pytest.raises(ValidationError):
        RadiusDistribution.from_atoms(atoms)


def test_from_atoms_accepts_lists_tuples_and_ints():
    d = RadiusDistribution.from_atoms([[1, 1]])
    assert d.atoms == ((1.0, 1.0),)
    assert all(type(x) is float for atom in d.atoms for x in atom)
    assert RadiusDistribution.from_atoms(tuple(TWO_POINT)).atoms == tuple(TWO_POINT)


def test_mean_inverse_two_point_value():
    d = RadiusDistribution.from_atoms(TWO_POINT)
    assert d.mean_inverse() == pytest.approx(100.0 / 99.0, abs=1e-15)
    assert d.mean_inverse() == pytest.approx(1.0101010101010102, abs=1e-15)


def test_jensen_sides_degenerate_distribution_is_an_equality():
    d = RadiusDistribution.from_atoms([(1.0, 1.0)])
    lhs, rhs = jensen_sides(d, 5.0, 100.0)
    assert lhs == rhs == pytest.approx(0.05, abs=1e-15)


def test_jensen_sides_two_point_value():
    lhs, rhs = jensen_sides(RadiusDistribution.from_atoms(TWO_POINT),
                            5.0, 100.0)
    assert rhs == pytest.approx(0.05, abs=1e-15)
    assert lhs == pytest.approx(0.05050505050505051, abs=1e-15)


def test_jensen_inequality_holds_for_random_distributions():
    rng = np.random.default_rng(271828)
    for _ in range(1000):
        d = _random_mean_one_distribution(rng)
        lhs, rhs = jensen_sides(d, 1.0, 50.0)
        assert lhs >= rhs - 1e-15
        spread = max(k for k, _ in d.atoms) - min(k for k, _ in d.atoms)
        if spread > 1e-6:
            assert lhs > rhs


def test_jensen_sides_rejects_radius_at_or_beyond_smallest_ring():
    d = RadiusDistribution.from_atoms(TWO_POINT)
    with pytest.raises(ValidationError, match="r < k_minus"):
        jensen_sides(d, 95.0, 100.0)
    with pytest.raises(ValidationError, match="must be positive"):
        jensen_sides(d, -1.0, 100.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_jensen_sides_requires_finite_radii(bad):
    d = RadiusDistribution.from_atoms(TWO_POINT)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        jensen_sides(d, 5.0, bad)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        jensen_sides(d, bad, 100.0)


@pytest.mark.parametrize("bad", ["5", None, True], ids=["str", "None", "bool"])
def test_jensen_sides_requires_numbers(bad):
    d = RadiusDistribution.from_atoms(TWO_POINT)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        jensen_sides(d, bad, 100.0)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        jensen_sides(d, 5.0, bad)


def test_randomized_asymptotic_reference_value(ref_circular):
    d = RadiusDistribution.from_atoms(TWO_POINT)
    p = asymptotic_probability_randomized(ref_circular, d)
    assert p == pytest.approx(0.3594760320288773, abs=1e-12)


def test_randomized_asymptotic_caps_at_one():
    d = RadiusDistribution.from_atoms(TWO_POINT)
    s = CircularPatrolScenario(R=100.0, r=5.0, n=29, v=2.0, u=1.0)
    assert asymptotic_probability_randomized(s, d) == 1.0


def test_randomized_never_below_fixed_radius(ref_circular):
    from patrolgeom.circular import asymptotic_summary
    rng = np.random.default_rng(55)
    fixed = asymptotic_summary(ref_circular).p_asym
    for _ in range(50):
        d = _random_mean_one_distribution(rng)
        if ref_circular.r >= min(k for k, _ in d.atoms) * ref_circular.R:
            continue
        assert asymptotic_probability_randomized(ref_circular, d) >= \
            fixed - 1e-12


def test_mc_degenerate_distribution_matches_fixed_radius(ref_circular):
    d = RadiusDistribution.from_atoms([(1.0, 1.0)])
    random_est = mc_probability_random_radius(ref_circular, d, 100_000, seed=7)
    fixed_est = mc_probability(ref_circular, 100_000, seed=7)
    combined = math.hypot(random_est.stderr, fixed_est.stderr)
    assert abs(random_est.mean - fixed_est.mean) < 3.0 * combined


def test_mc_static_ring_matches_mixture_of_closed_forms(static_circular):
    # with v = 0 each radius state contributes (n/pi) asin(r / (k R))
    d = RadiusDistribution.from_atoms(TWO_POINT)
    expected = math.fsum(p * (static_circular.n / math.pi)
                         * math.asin(static_circular.r / (k * static_circular.R))
                         for k, p in d.atoms)
    est = mc_probability_random_radius(static_circular, d, 200_000, seed=3)
    assert abs(est.mean - expected) < 3.0 * est.stderr


def test_mc_random_radius_deterministic_across_workers(ref_circular):
    d = RadiusDistribution.from_atoms(TWO_POINT)
    a = mc_probability_random_radius(ref_circular, d, 30_000, seed=9)
    b = mc_probability_random_radius(ref_circular, d, 30_000, seed=9,
                                     workers=3)
    assert a == b


@pytest.mark.parametrize("fields", [
    dict(R=100.0, r=5.0, n=10, v=2.0, u=1.0),
    dict(R=100.0, r=5.0, n=10, v=0.0, u=1.0),
    dict(R=1.0, r=1e-6, n=200, v=100.0, u=1.0),
    dict(R=10.0, r=3.0, n=1, v=0.01, u=1.0),
])
def test_point_mass_indicator_flags_equal_the_fixed_radius_flags(fields):
    # the randomized indicator reads the launch angle from draw column 1
    s = CircularPatrolScenario(**fields)
    d = RadiusDistribution.from_atoms([(1.0, 1.0)])
    u = SeedSchedule(21).uniform_block(0, 50_000, 2)
    fixed = circular._indicator(s).evaluate_batch(u[:, 1:].copy())
    assert 0 < np.count_nonzero(fixed) < fixed.size
    assert np.array_equal(_indicator(s, d).evaluate_batch(u), fixed)


def test_exact_random_radius_point_mass_is_the_fixed_radius_value(ref_circular):
    d = RadiusDistribution.from_atoms([(1.0, 1.0)])
    assert exact_probability_random_radius(ref_circular, d) == \
        exact_probability(ref_circular)


def test_exact_random_radius_static_ring_matches_mixture_of_closed_forms(
        static_circular):
    # with v = 0 each radius state contributes (n/pi) asin(r / (k R))
    d = RadiusDistribution.from_atoms(TWO_POINT)
    expected = math.fsum(p * (static_circular.n / math.pi)
                         * math.asin(static_circular.r / (k * static_circular.R))
                         for k, p in d.atoms)
    assert exact_probability_random_radius(static_circular, d) == \
        pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("scenario, atoms, saturated", [
    (dict(R=100.0, r=5.0, n=10, v=2.0, u=1.0), TWO_POINT, 0),
    (dict(R=10.0, r=3.0, n=4, v=1.0, u=1.0), [(0.5, 0.5), (1.5, 0.5)], 1),
    (dict(R=10.0, r=3.0, n=4, v=1.0, u=1.0), [(0.4, 0.25), (1.2, 0.75)], 1),
    (dict(R=10.0, r=2.0, n=8, v=3.0, u=1.0), [(0.5, 0.5), (1.5, 0.5)], 2),
    (dict(R=1.0, r=0.01, n=3, v=0.5, u=2.0),
     [(0.5, 0.2), (1.0, 0.4), (1.25, 0.4)], 0),
])
def test_mc_random_radius_within_interval_of_exact(scenario, atoms, saturated):
    s = CircularPatrolScenario(**scenario)
    d = RadiusDistribution.from_atoms(atoms)
    assert sum(s.n * _detection_arc(s, k)[1] >= TWO_PI
               for k, _ in d.atoms) == saturated
    exact = exact_probability_random_radius(s, d)
    trials = 100_000
    est = mc_probability_random_radius(s, d, trials, seed=11)
    assert abs(est.mean - exact) <= 4.0 * est.stderr + 1.0 / trials


def test_subnormal_scan_ratio_reads_each_atoms_limit_arc():
    # e = 1e-320 is subnormal and w = 1e310 overflows: atom k's arc is
    # 2(e/k)w long; at R = 1.7e308, k*R overflows for k = 1.1
    d = RadiusDistribution.from_atoms(TWO_POINT)
    for R in (1.0, 1.7e308):
        s = CircularPatrolScenario(R=R, r=1e-320 * R, n=1, v=1e300, u=1e-10)
        e = Fraction(s.r) / Fraction(s.R)
        want = math.fsum(float(Fraction(p) * 2 * e / Fraction(k)
                               * Fraction(s.v) / Fraction(s.u))
                         for k, p in d.atoms) / TWO_PI
        assert exact_probability_random_radius(s, d) == pytest.approx(
            want, rel=1e-14, abs=0.0)
        assert mc_probability_random_radius(s, d, 1000, seed=0).successes == 0
        # the closed form's share rounds once, not first at e*E[1/k]/pi
        sin_alpha = math.sin(math.atan2(s.u, s.v))
        share = (e * Fraction(d.mean_inverse())
                 / (Fraction(math.pi) * Fraction(sin_alpha)))
        assert asymptotic_probability_randomized(s, d) == pytest.approx(
            float(share), rel=1e-15, abs=0.0)


def test_vanishing_scan_ratio_with_infinite_speed_ratio_saturates_each_atom():
    d = RadiusDistribution.from_atoms(TWO_POINT)
    s = CircularPatrolScenario(R=1e10, r=5e-324, n=1, v=1e300, u=1e-300)
    assert [_detection_arc(s, k) for k, _ in d.atoms] == [(0.0, TWO_PI)] * 2
    assert exact_probability_random_radius(s, d) == 1.0
    assert mc_probability_random_radius(s, d, 1000, seed=0).mean == 1.0


def test_exact_random_radius_rejects_overlapping_radius():
    d = RadiusDistribution.from_atoms(TWO_POINT)
    s = CircularPatrolScenario(R=100.0, r=95.0, n=1, v=2.0, u=1.0)
    with pytest.raises(ValidationError, match="r < k_minus"):
        exact_probability_random_radius(s, d)


def test_mc_random_radius_rejects_overlapping_radius(ref_circular):
    d = RadiusDistribution.from_atoms(TWO_POINT)
    s = CircularPatrolScenario(R=100.0, r=95.0, n=1, v=2.0, u=1.0)
    with pytest.raises(ValidationError, match="r < k_minus"):
        mc_probability_random_radius(s, d, 100, seed=0)


def test_process_validation():
    with pytest.raises(ValidationError, match="at least one state"):
        validate_process(PiecewiseRadiusProcess((), 1.0, 200.0))
    with pytest.raises(ValidationError, match="positive multipliers"):
        validate_process(PiecewiseRadiusProcess((1.0, -0.5), 1.0, 200.0))
    with pytest.raises(ValidationError, match="dwell must be positive"):
        validate_process(PiecewiseRadiusProcess((1.0,), 0.0, 200.0))
    with pytest.raises(ValidationError, match="horizon >= 100"):
        validate_process(PiecewiseRadiusProcess((1.0,), 1.0, 99.0))
    with pytest.raises(ValidationError, match="transition must be"):
        validate_process(PiecewiseRadiusProcess((1.0,), 1.0, 200.0,
                                                transition="markov"))


def test_process_validation_rejects_boolean_states():
    with pytest.raises(ValidationError, match="positive multipliers"):
        validate_process(PiecewiseRadiusProcess((True,), 1.0, 200.0))


def test_process_validation_rejects_nonnumeric_dwell():
    with pytest.raises(ValidationError, match="dwell must be positive"):
        validate_process(PiecewiseRadiusProcess((1.0,), "x", 200.0))


def test_process_validation_rejects_infinite_horizon():
    with pytest.raises(ValidationError, match="horizon must be finite"):
        ergodic_time_average(PiecewiseRadiusProcess((1.0,), 1.0, math.inf), 0)


def test_process_validation_caps_the_horizon_at_a_million_dwells():
    # the average walks the horizon one dwell at a time
    proc = PiecewiseRadiusProcess((1.0,), 2.0, 2e6)
    assert validate_process(proc) is proc
    for horizon in (2e6 + 1.0, 1e300):
        with pytest.raises(ValidationError, match=r"horizon <= 10\*\*6"):
            ergodic_time_average(PiecewiseRadiusProcess((1.0,), 2.0, horizon),
                                 0)


def test_ergodic_average_single_state_is_exact():
    proc = PiecewiseRadiusProcess((1.0,), 1.0, 500.0)
    avg, ensemble = ergodic_time_average(proc, seed=0)
    assert avg == pytest.approx(1.0, abs=1e-12)
    assert ensemble == 1.0


def test_ergodic_average_cyclic_visits_states_evenly():
    proc = PiecewiseRadiusProcess((0.9, 1.1), 1.0, 1000.0,
                                  transition="cyclic")
    avg, ensemble = ergodic_time_average(proc, seed=0)
    assert ensemble == pytest.approx(100.0 / 99.0, abs=1e-12)
    assert abs(avg - ensemble) < 1e-3


def _ergodic_reference(proc, seed):
    """The trajectory average walked one dwell at a time, each random step
    drawing one TrialSource.uniform of trial 0 of full draws."""
    inverse = [1.0 / k for k in proc.states]
    m = len(inverse)
    full = int(proc.horizon // proc.dwell)
    source = SeedSchedule(seed).trial_source(0, full)
    remainder = proc.horizon - full * proc.dwell
    acc, idx = 0.0, 0
    for step in range(full + (1 if remainder > 0.0 else 0)):
        acc += (proc.dwell if step < full else remainder) * inverse[idx]
        if proc.transition == "cyclic":
            idx = (idx + 1) % m
        else:
            idx = min(int(m * source.uniform()), m - 1)
    return acc / proc.horizon


@pytest.mark.parametrize("seed", [0, -7, 2 ** 64 + 11])
@pytest.mark.parametrize("transition", ["random", "cyclic"])
@pytest.mark.parametrize("states,dwell,horizon", [
    ((0.9, 1.1), 1.0, 200.0),
    ((0.5, 1.0, 1.5), 0.7, 1234.5),
    ((0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 0.7), 0.25, 1000.0),
])
def test_ergodic_average_equals_the_one_draw_at_a_time_walk(
        seed, transition, states, dwell, horizon):
    proc = PiecewiseRadiusProcess(states, dwell, horizon, transition)
    assert (ergodic_time_average(proc, seed)[0]
            == _ergodic_reference(proc, seed))


def test_ergodic_average_random_transitions_settle():
    states = (0.9, 1.1)
    proc = PiecewiseRadiusProcess(states, 1.0, 10_000.0, transition="random")
    avg, ensemble = ergodic_time_average(proc, seed=0)
    inverses = [1.0 / k for k in states]
    mu = math.fsum(inverses) / len(inverses)
    sd = math.sqrt(math.fsum((x - mu) ** 2 for x in inverses) / len(inverses))
    assert abs(avg - ensemble) < 5.0 * sd / math.sqrt(10_000.0)
