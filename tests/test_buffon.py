"""Classical needle-crossing problem: closed form and Monte Carlo calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgeom import buffon, montecarlo
from patrolgeom.buffon import (NeedleProblem, _NeedleIndicator, buffon_mc,
                               buffon_probability, validate_needle)
from patrolgeom.montecarlo import SeedSchedule, run_bernoulli_trials
from patrolgeom.scenario import ValidationError


def test_closed_form_values():
    assert buffon_probability(NeedleProblem(1.0, 1.0)) == pytest.approx(
        2.0 / math.pi, abs=1e-15)
    assert buffon_probability(NeedleProblem(1.0, 2.0)) == pytest.approx(
        1.0 / math.pi, abs=1e-15)


def test_closed_form_is_scale_invariant():
    base = buffon_probability(NeedleProblem(0.7, 1.3))
    for c in (0.01, 3.0, 250.0):
        assert buffon_probability(NeedleProblem(0.7 * c, 1.3 * c)) == \
            pytest.approx(base, abs=1e-14)


def test_validation_rejects_long_needle_and_bad_sizes():
    with pytest.raises(ValidationError, match="l <= L required"):
        validate_needle(NeedleProblem(2.0, 1.0))
    with pytest.raises(ValidationError, match="l must be positive"):
        validate_needle(NeedleProblem(0.0, 1.0))
    with pytest.raises(ValidationError, match="L must be positive"):
        validate_needle(NeedleProblem(1.0, math.inf))


def test_mc_agrees_with_closed_form_at_fixed_seed():
    problem = NeedleProblem(1.0, 1.0)
    est = buffon_mc(problem, 100_000, seed=11)
    z = abs(est.mean - 2.0 / math.pi) / est.stderr
    assert z < 3.0


def test_mc_is_deterministic_and_worker_independent():
    problem = NeedleProblem(0.8, 1.0)
    a = buffon_mc(problem, 30_000, seed=4)
    b = buffon_mc(problem, 30_000, seed=4)
    c = buffon_mc(problem, 30_000, seed=4, workers=3)
    assert a == b == c
    d = buffon_mc(problem, 30_000, seed=5)
    assert d.successes != a.successes


def test_mc_vanishing_needle_never_crosses():
    est = buffon_mc(NeedleProblem(1e-12, 1.0), 10_000, seed=0)
    assert est.mean == 0.0
    assert est.ci_low == 0.0


def test_mc_successes_are_monotone_in_needle_length():
    # identical draws per seed, so the crossing event nests as l grows
    counts = [buffon_mc(NeedleProblem(l, 1.0), 20_000, seed=21).successes
              for l in (0.2, 0.5, 0.8, 1.0)]
    assert counts == sorted(counts)


def test_interval_coverage_over_many_seeds():
    problem = NeedleProblem(1.0, 1.0)
    truth = 2.0 / math.pi
    covered = sum(
        1 for rep in range(100)
        if (lambda e: e.ci_low <= truth <= e.ci_high)(
            buffon_mc(problem, 2000, seed=5000 + rep)))
    assert covered >= 90


def test_validation_rejects_booleans_and_lengths_beyond_float_range():
    with pytest.raises(ValidationError, match="l must be a number"):
        validate_needle(NeedleProblem(True, 1.0))
    with pytest.raises(ValidationError, match="L must be a number"):
        validate_needle(NeedleProblem(0.5, True))
    with pytest.raises(ValidationError, match="L must be positive"):
        validate_needle(NeedleProblem(1.0, 10 ** 400))
    with pytest.raises(ValidationError, match="l must be positive"):
        buffon_probability(NeedleProblem(10 ** 400, 10 ** 400))
    assert validate_needle(NeedleProblem(1, 3)) == NeedleProblem(1, 3)



@pytest.mark.parametrize("l,L", [(1e300, 1e308), (1e307, 1e308),
                                 (9e307, 1e308), (1e308, 1.7e308)])
def test_closed_form_holds_where_pi_times_L_overflows(l, L):
    # pi*L overflows from L = 5.7e307, where 2*l/(pi*L) read 0.0 or NaN
    expected = 2.0 / math.pi * (l / L)
    got = buffon_probability(NeedleProblem(l, L))
    assert abs(got - expected) <= 4 * math.ulp(expected)


def test_closed_form_near_the_float_ceiling_agrees_with_mc():
    problem = NeedleProblem(1e307, 1e308)
    est = buffon_mc(problem, 20_000, seed=11)
    assert est.ci_low <= buffon_probability(problem) <= est.ci_high


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308))
def test_closed_form_is_a_probability_over_the_float_range(a, b):
    p = buffon_probability(NeedleProblem(min(a, b), max(a, b)))
    assert math.isfinite(p) and 0.0 <= p <= 1.0

# ---- the polynomial fast path of the Monte Carlo kernel ----
_ULP = 2.0 ** -53
# (l, L): the smallest subnormal, a tiny normal, the unit, the float ceiling
_NEEDLES = [(5e-324, 1.0), (1e-300, 1.0), (0.6, 1.3), (1.0, 1.0),
            (1e308, 1e308)]
# w = k * 2**-53 near 0, 1/2 and 1 - 2**-53, where the polynomial is least
# accurate (w near 0 and 1) or its argument vanishes (w = 1/2)
_EDGE_K = sorted({k for c in (0, 2 ** 52, 2 ** 53 - 1)
                  for k in range(c - 3, c + 4) if 0 <= k < 2 ** 53})


def _reference(l, L, z, w):
    """The exact test, fl(l*sin(fl(pi*w))) >= fl(z*L)."""
    return l * np.sin(w * math.pi) >= z * L


def _rows_around_tangency(l, L, ks, ulps=4):
    """Draw rows (z, w) with w = k*2**-53 and z*L at the tangency
    fl(l*sin(pi*w)) nudged by -ulps..ulps ulps, and at +-0.5, 0.99, 1.01, 2
    and 4 times the fast path's margin l*2**-14 around it."""
    w = np.asarray(ks, dtype=np.float64) * _ULP
    z0 = l * np.sin(w * math.pi) / L
    zs = [z0]
    for _ in range(ulps):
        zs = [np.nextafter(zs[0], -np.inf)] + zs + [np.nextafter(zs[-1], np.inf)]
    for f in (0.5, 0.99, 1.01, 2.0, 4.0):
        offset = f * l * buffon._MARGIN / L
        zs += [z0 - offset, z0 + offset]
    z = np.clip(np.concatenate(zs), 0.0, 1.0 - _ULP)
    return z, np.tile(w, len(zs))


def _flags(l, L, z, w):
    # the draws, then the indicator's two scratch columns
    u = np.column_stack([z, w, np.empty_like(z), np.empty_like(z)])
    return _NeedleIndicator(l, L).evaluate_batch(u)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(_NEEDLES),
       st.lists(st.integers(0, 2 ** 53 - 1), min_size=1, max_size=64))
def test_fast_path_flags_equal_the_exact_test_at_tangency(needle, ks):
    l, L = needle
    z, w = _rows_around_tangency(l, L, ks + _EDGE_K)
    assert np.array_equal(_flags(l, L, z, w), _reference(l, L, z, w))


@pytest.mark.parametrize("needle", _NEEDLES)
def test_fast_path_flags_equal_the_exact_test_on_draws(needle):
    l, L = needle
    u = SeedSchedule(77).uniform_block(0, 200_000, 2)
    expected = _reference(l, L, u[:, 0], u[:, 1])
    assert np.array_equal(_flags(l, L, u[:, 0].copy(), u[:, 1].copy()),
                          expected)
    # the runner's layout: a contiguous row per draw, then the scratch rows
    rows = np.empty((4, u.shape[0]))
    rows[:2] = u.T
    assert np.array_equal(_NeedleIndicator(l, L).evaluate_batch(rows.T),
                          expected)


def test_fast_path_guard_covers_extreme_needles():
    assert _NeedleIndicator(0.6, 1.3)._fast
    assert _NeedleIndicator(1e-300, 1.0)._fast
    assert not _NeedleIndicator(5e-324, 1.0)._fast
    assert not _NeedleIndicator(1e308, 1e308)._fast


def test_polynomial_stays_within_half_the_margin():
    # dense grid of draws w = k*2**-53 over [0, 1), endpoints included
    k = np.unique(np.concatenate([np.linspace(0, 2 ** 53 - 1, 1_000_001),
                                  np.asarray(_EDGE_K, dtype=np.float64)]))
    w = k * _ULP
    s = (w - 0.5) ** 2
    p = np.zeros_like(s)
    for c in reversed(buffon._COS_TAYLOR):
        p = p * s + c
    assert np.max(np.abs(p - np.sin(math.pi * w))) < buffon._MARGIN / 2


def test_fast_path_sends_only_a_thin_band_to_np_sin(monkeypatch):
    exact_rows = []
    original = _NeedleIndicator._exact

    def counting(self, zL, w):
        exact_rows.append(w.size)
        return original(self, zL, w)

    monkeypatch.setattr(_NeedleIndicator, "_exact", counting)
    trials = 1_000_000
    est = buffon_mc(NeedleProblem(1.0, 1.0), trials, seed=3)
    assert 0 < est.successes < trials
    # the band holds a fraction of about 2 * 2**-14 * l/L of the trials
    assert sum(exact_rows) < 3 * buffon._MARGIN * trials


@pytest.mark.parametrize("needle", _NEEDLES)
def test_fast_path_counts_ignore_chunk_size_and_workers(needle, monkeypatch):
    l, L = needle
    trials = 3000
    sched = SeedSchedule(9090)
    u = sched.uniform_block(0, trials, 2)
    expected = int(np.count_nonzero(_reference(l, L, u[:, 0], u[:, 1])))
    indicator = _NeedleIndicator(l, L)
    for chunk in (1, 7, trials + 1):
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        for workers in (1, 2, 3):
            est = run_bernoulli_trials(indicator, trials, sched, workers)
            assert est.successes == expected, (chunk, workers)
