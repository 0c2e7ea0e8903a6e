"""Correctness over the whole validated domain: tiny radii, fast rotation,
huge fleets, and the three estimators against each other.

Scenarios are drawn with r/R in [1e-9, 0.99], v/u in {0} or [1e-3, 1e6] and
n up to 1e9.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patrolgeom import (CircularPatrolScenario, LinearPatrolScenario,
                        RadiusDistribution, asymptotic_probability_randomized,
                        exact_probability_random_radius)
from patrolgeom.circular import (_arc, _detection_arc, asymptotic_summary,
                                 detection_arc_set, detects, exact_probability,
                                 mc_probability)
from patrolgeom.frames import distance_to_vehicle
from patrolgeom.linear import (CrossingSample, asymptotic_summary_linear,
                               detects_linear, mc_probability_linear,
                               vehicle_position_linear)

from conftest import TWO_PI, oracle_detects_circular, oracle_detects_linear

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
SLOW_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


ratios = _log_uniform(1e-9, 0.99)
speed_ratios = st.one_of(st.just(0.0), _log_uniform(1e-3, 1e6))
fleets = st.one_of(st.integers(1, 100), st.integers(1, 10 ** 9))


@st.composite
def circular_scenarios(draw, ratio=ratios, speed=speed_ratios, fleet=fleets):
    R = draw(_log_uniform(0.1, 1e3))
    u = draw(_log_uniform(0.1, 10.0))
    return CircularPatrolScenario(R=R, r=R * draw(ratio), n=draw(fleet),
                                  v=u * draw(speed), u=u)


# ---- the tiny-radius regression ----

def test_tiny_radius_exact_probability_is_not_lost():
    # r/R = 1.2e-7: the arc is far narrower than any angular grid, and the
    # law-of-cosines distance cancels to noise here
    s = CircularPatrolScenario(R=39.43141328907368, r=4.794024688548737e-06,
                               n=2, v=1.6990557744858732,
                               u=0.10108632858046106)
    p = exact_probability(s)
    assert p == pytest.approx(1.3032284e-6, rel=1e-6)
    assert p == pytest.approx(asymptotic_summary(s).p_asym, rel=s.r / s.R,
                              abs=0.0)


_ATOMS = RadiusDistribution.from_atoms([(0.5, 0.5), (1.5, 0.5)])


@PROPERTY
@given(circular_scenarios(ratio=_log_uniform(1e-300, 1e-9)))
@example(CircularPatrolScenario(R=1.0, r=1e-160, n=3, v=0.0, u=1.0))
@example(CircularPatrolScenario(R=1.0, r=1e-300, n=3, v=0.0, u=1.0))
def test_exact_answers_keep_their_size_down_to_the_smallest_radii(s):
    # a half-angle formed as delta*(2e - delta) in units of R underflows
    # below r/R = 1e-154; these answers are about r/R, so nothing may
    ratio = s.r / s.R
    pairs = [(exact_probability(s), asymptotic_summary(s).p_asym),
             (exact_probability_random_radius(s, _ATOMS),
              asymptotic_probability_randomized(s, _ATOMS))]
    for exact, asymptotic in pairs:
        assert abs(exact - asymptotic) <= (ratio + 1e-12) * max(exact, asymptotic)
    assert detection_arc_set(0, s).intervals != ()


# ---- the single-arc envelope against a dense grid ----

def _grid_extremum(f, lo, hi, points=2001, levels=3):
    """Max of f over [lo, hi] by a dense grid, refined twice around the
    best sample."""
    t = np.linspace(lo, hi, points)
    for _ in range(levels - 1):
        k = int(np.argmax(f(t)))
        t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, points - 1)], points)
    return float(np.max(f(t)))


@PROPERTY
@given(circular_scenarios())
def test_arc_envelope_matches_dense_grid(s):
    omega, T = s.v / s.R, 2.0 * s.r / s.u

    def half(t):
        ut = s.u * t
        rho = s.R + s.r - ut
        arg = np.clip(ut * (2.0 * s.r - ut) / (4.0 * s.R * rho), 0.0, 1.0)
        return 2.0 * np.arcsin(np.sqrt(arg))

    hi = _grid_extremum(lambda t: omega * t + half(t), 0.0, T)
    lo = -_grid_extremum(lambda t: half(t) - omega * t, 0.0, T)
    got_lo, got_length = _detection_arc(s)
    scale = hi - lo
    assert got_lo == pytest.approx(lo, abs=1e-9 * scale)
    assert got_length == pytest.approx(hi - lo, rel=1e-9, abs=0.0)
    # the searched extrema are never inside the sampled envelope
    assert got_lo <= lo + 1e-12 * scale
    assert got_lo + got_length >= hi - 1e-12 * scale
    arcs = detection_arc_set(0, s)
    assert arcs.measure() == pytest.approx(min(TWO_PI, got_length),
                                           rel=1e-9, abs=1e-15)


# ---- exact: monotone, and asymptotic as r/R -> 0 ----

@PROPERTY
@given(circular_scenarios(), st.floats(0.0, 1.0), st.integers(1, 10 ** 9))
def test_exact_monotone_in_radius_and_fleet(s, shrink, extra):
    smaller = CircularPatrolScenario(R=s.R, r=s.r * (0.5 + 0.5 * shrink),
                                     n=s.n, v=s.v, u=s.u)
    p = exact_probability(s)
    assert exact_probability(smaller) <= p * (1.0 + 1e-12)
    bigger_fleet = CircularPatrolScenario(R=s.R, r=s.r, n=s.n + extra,
                                          v=s.v, u=s.u)
    assert exact_probability(bigger_fleet) >= p


@PROPERTY
@given(circular_scenarios(ratio=_log_uniform(1e-9, 1e-3)))
def test_exact_approaches_asymptotic_as_radius_vanishes(s):
    ratio = s.r / s.R
    p = exact_probability(s)
    a = asymptotic_summary(s).p_asym
    # the gap is in fact near (r/R)^2/6 relative, as on the static ring
    assert abs(p - a) <= (ratio + 1e-12) * max(p, a)


def _arc_expansion(e, w):
    """(L, L_asym, c): the arc length at e = r/R, w = v/u, its first-order
    form 2e/sqrt(S) and the second-order coefficient c of
    L = L_asym (1 + c e^2 + O(e^4)), with S = sin^2(alpha) = 1/(1 + w^2)."""
    S = 1.0 / (1.0 + w * w)
    c = S * (3.0 - 5.0 * S + 3.0 * S * S) / 6.0
    return _arc(e, w)[1], 2.0 * e / math.sqrt(S), c


# below e = 1e-3 the e^4 terms fall under the rounding of L
arc_ratios = _log_uniform(1e-3, 0.5)
arc_speeds = st.one_of(st.just(0.0), _log_uniform(1e-4, 1e4))


@PROPERTY
@given(arc_ratios, arc_speeds)
@example(1e-3, 0.0)
@example(0.5, 0.0)
@example(0.5, 1e4)
def test_first_order_arc_falls_short_by_at_most_the_second_order_term(e, w):
    L, L_asym, c = _arc_expansion(e, w)
    assert 0.0 <= (L - L_asym) / L_asym <= c * e ** 2 + 0.09 * e ** 4


@PROPERTY
@given(arc_ratios, arc_speeds)
@example(1e-3, 0.0)
@example(0.5, 0.0)
@example(0.5, 1e4)
def test_second_order_arc_is_within_a_tenth_of_e4(e, w):
    L, L_asym, c = _arc_expansion(e, w)
    assert abs(L - L_asym * (1.0 + c * e * e)) / L <= 0.1 * e ** 4


@PROPERTY
@given(st.floats(0.1, 0.999), st.floats(0.05, 0.95), _log_uniform(1e-6, 1.0),
       arc_speeds, st.floats(0.0, 1.0))
@example(0.5, 0.5, 1.0, 0.0, 1.0)
@example(0.999, 0.95, 1e-6, 1e4, 0.0)
def test_randomized_asymptotic_falls_short_by_at_most_the_atoms_terms(
        k, p, shrink, w, fleet):
    # two atoms with mean one, k < 1 < k2; each atom's arc has ratio e/k <= 0.5
    k2 = (1.0 - p * k) / (1.0 - p)
    d = RadiusDistribution.from_atoms([(k, p), (k2, 1.0 - p)])
    e = 0.5 * k * shrink
    arcs = [(weight, *_arc_expansion(e / atom, w)) for atom, weight in d.atoms]
    # a fleet that saturates no atom: n * L_k < 2*pi for each k
    n = max(1, int(fleet * TWO_PI / max(L for _, L, _, _ in arcs)))
    assume(all(n * L < TWO_PI for _, L, _, _ in arcs))
    s = CircularPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0)
    exact = exact_probability_random_radius(s, d)
    gap = exact - asymptotic_probability_randomized(s, d)
    bound = math.fsum(weight * n * L_asym / TWO_PI
                      * (c * (e / atom) ** 2 + 0.09 * (e / atom) ** 4)
                      for (atom, _), (weight, _, L_asym, c)
                      in zip(d.atoms, arcs))
    slack = 4.0 * math.ulp(exact)
    assert -slack <= gap <= bound + slack


# ---- Monte Carlo against exact ----

@SLOW_PROPERTY
@given(circular_scenarios(), st.integers(0, 2 ** 31))
def test_mc_within_four_standard_errors_of_exact(s, seed):
    trials = 4000
    p = exact_probability(s)
    est = mc_probability(s, trials, seed=seed)
    # one trial's worth of slack keeps rare-event draws (p*trials << 1)
    # from failing on a single success, where the normal tail is no guide
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(est.mean - p) <= 4.0 * se + 1.0 / trials


# ---- independent dense oracles ----

@SLOW_PROPERTY
@given(circular_scenarios(ratio=_log_uniform(0.01, 0.5),
                          speed=st.one_of(st.just(0.0), _log_uniform(0.01, 20.0)),
                          fleet=st.integers(1, 12)),
       st.floats(0.0, TWO_PI, exclude_max=True))
def test_detects_matches_dense_oracle_across_regimes(s, psi):
    want = oracle_detects_circular(psi, s)
    if want is not None:
        assert any(detects(psi, i, s) for i in range(s.n)) == want


@SLOW_PROPERTY
@given(_log_uniform(0.001, 0.45), _log_uniform(0.05, 50.0),
       st.integers(1, 40), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_detects_linear_matches_dense_oracle_across_regimes(ratio, speed, n,
                                                            fa, fb):
    s = LinearPatrolScenario(R=100.0, r=100.0 * ratio, n=n, v=speed, u=1.0)
    a, b = fa * s.R, fb * 2.0 * s.R / s.n
    want = oracle_detects_linear(a, b, s)
    if want is not None:
        assert detects_linear(CrossingSample(a=a, b=b), s) == want


# ---- scale invariance: only r/R, v/u and n matter ----

@PROPERTY
@given(_log_uniform(1e-7, 0.5), st.one_of(st.just(0.0), _log_uniform(1e-3, 1e6)),
       st.integers(1, 1000))
def test_answers_depend_only_on_the_ratios(e, w, n):
    # lengths from 1e-300 to 1e300 and speeds from 1e-30 to 1e30: every
    # input stays a normal float, while products such as R*u or 4*R*rho
    # leave the float range
    atoms = RadiusDistribution.from_atoms([(0.9, 0.5), (1.1, 0.5)])
    answers = []
    for length, speed in itertools.product((1e-300, 1.0, 1e300),
                                           (1e-30, 1.0, 1e30)):
        s = CircularPatrolScenario(R=length, r=e * length, n=n, v=w * speed,
                                   u=speed)
        summary = asymptotic_summary(s)
        answers.append((exact_probability(s), summary.chord_l, summary.p_asym,
                        summary.m_min, exact_probability_random_radius(s, atoms)))
    for got in answers:
        assert got == pytest.approx(answers[4], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [5e-324, 1e-320])
@pytest.mark.parametrize("summary,kind", [
    (asymptotic_summary, CircularPatrolScenario),
    (asymptotic_summary_linear, LinearPatrolScenario)])
def test_closed_form_of_a_subnormal_share_leaves_the_float_range(summary, kind, r):
    # the per-vehicle share is 0 or subnormal, so m_min = ceil(1/share)
    # exceeds 1.8e308
    with pytest.raises(OverflowError, match="^closed form exceeds the float range$"):
        summary(kind(R=100.0, r=r, n=10, v=2.0, u=1.0))


# ---- saturation: where p is 1, every estimator detects everything ----

PSI_GRID = np.linspace(0.0, TWO_PI, 97, endpoint=False)


@PROPERTY
@given(_log_uniform(1e-7, 0.9), _log_uniform(1e-3, 1e300),
       st.integers(1, 12), st.integers(0, 2 ** 31))
@example(e=0.1, w=math.inf, n=1, seed=0)
def test_circular_saturation_agrees_across_estimators(e, w, n, seed):
    # w = inf stands for v/u beyond the float range (v = 1e300, u = 1e-300)
    s = (CircularPatrolScenario(R=1.0, r=e, n=n, v=1e300, u=1e-300)
         if w == math.inf else
         CircularPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0))
    if exact_probability(s) < 1.0:
        return
    assert all(any(detects(psi, i, s) for i in range(n)) for psi in PSI_GRID)
    assert mc_probability(s, 2000, seed=seed).successes == 2000


@PROPERTY
@given(_log_uniform(1e-7, 0.49), _log_uniform(1e-3, 1e300),
       st.integers(1, 1000), st.integers(0, 2 ** 31))
def test_linear_saturation_agrees_with_mc(e, w, n, seed):
    s = LinearPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0)
    if asymptotic_summary_linear(s).p_asym < 1.0:
        return
    assert mc_probability_linear(s, 2000, seed=seed).successes == 2000


# both models with a fleet of ten, so that index 10 is n for each
_CIRCLE_10 = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
_SEGMENT_10 = LinearPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
_VEHICLE_ENTRY_POINTS = {
    "detects": lambda i: detects(math.pi / 10, i, _CIRCLE_10),
    "detection_arc_set": lambda i: detection_arc_set(i, _CIRCLE_10),
    "distance_to_vehicle": lambda i: distance_to_vehicle(0.0, 0.0, i, _CIRCLE_10),
    "vehicle_position_linear":
        lambda i: vehicle_position_linear(i, 0.0, 0.0, _SEGMENT_10),
}


@pytest.mark.parametrize("entry", sorted(_VEHICLE_ENTRY_POINTS))
@pytest.mark.parametrize("index", [1.5, True, -1, 10],
                         ids=["fraction", "bool", "negative", "n"])
def test_vehicle_index_is_an_integer_in_range(entry, index):
    # one rule for both models: an integer in [0, n), not a bool
    with pytest.raises(ValueError,
                       match=r"^vehicle index must be an integer in \[0, n\)$"):
        _VEHICLE_ENTRY_POINTS[entry](index)
    _VEHICLE_ENTRY_POINTS[entry](np.int64(9))  # numpy integers are integers
