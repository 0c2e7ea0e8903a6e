"""Deterministic Monte Carlo machinery: seeding, intervals, trial runner."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgeom import circular, linear, montecarlo, randomradius
from patrolgeom.buffon import NeedleProblem, _NeedleIndicator, buffon_mc
from patrolgeom.circular import TWO_PI, _detection_arc, mc_probability
from patrolgeom.linear import mc_probability_linear
from patrolgeom.montecarlo import (_LANES, _SCALAR_DRAWS, CHUNK_TRIALS,
                                   MAX_WORKERS, DrawWorkspace, EstimateWithCI,
                                   SeedSchedule, TrialSource, _count_scalar,
                                   _trial_draws, estimate_from_counts, mix64,
                                   run_bernoulli_trials, wilson_interval)
from patrolgeom.randomradius import (PiecewiseRadiusProcess, RadiusDistribution,
                                     ergodic_time_average,
                                     mc_probability_random_radius)
from patrolgeom.scenario import CircularPatrolScenario, LinearPatrolScenario

# Reference outputs of the well-known 64-bit split-and-mix generator for
# seed 1234567; the trial-key schedule reproduces them by construction.
_SPLITMIX_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def test_trial_keys_match_reference_sequence():
    sched = SeedSchedule(1234567)
    for i, expected in enumerate(_SPLITMIX_1234567):
        assert sched.trial_key(i) == expected


def test_mix64_is_injective_on_a_large_sample():
    keys = {mix64(x) for x in range(100_000)}
    assert len(keys) == 100_000


def test_trial_keys_distinct_within_and_across_seeds():
    a = [SeedSchedule(0).trial_key(i) for i in range(10_000)]
    b = [SeedSchedule(1).trial_key(i) for i in range(10_000)]
    assert len(set(a)) == 10_000
    assert len(set(b)) == 10_000
    # different roots should not replay each other's key stream
    assert len(set(a) & set(b)) == 0


def test_trial_key_rejects_negative_index():
    with pytest.raises(ValueError):
        SeedSchedule(0).trial_key(-1)


def test_uniform_block_matches_scalar_sources_bit_for_bit():
    sched = SeedSchedule(20260825)
    block = sched.uniform_block(3, 40, 4)
    assert block.shape == (37, 4)
    for row, index in enumerate(range(3, 40)):
        src = sched.trial_source(index)
        scalar = [src.uniform() for _ in range(4)]
        assert block[row].tolist() == scalar


def test_uniform_block_validates_range():
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(5, 3, 1)


def test_uniform_block_columns_are_contiguous():
    block = SeedSchedule(3).uniform_block(0, 100, 3)
    assert all(block[:, j].flags.c_contiguous for j in range(3))


@pytest.mark.parametrize("start", [0, 3, 2 ** 40, 2 ** 40 + 12_345, 2 ** 62])
def test_uniform_block_into_workspace_matches_fresh_and_scalar(start):
    sched = SeedSchedule(20260825)
    ws = DrawWorkspace(64, 3)
    for stop in (start, start + 1, start + 37, start + 64):
        into = sched.uniform_block(start, stop, 3, out=ws)
        fresh = sched.uniform_block(start, stop, 3)
        assert into.shape == fresh.shape == (stop - start, 3)
        assert np.array_equal(into.view(np.uint64), fresh.view(np.uint64))
        for row, index in enumerate(range(start, stop)):
            src = sched.trial_source(index)
            assert into[row].tolist() == [src.uniform() for _ in range(3)]


def test_fresh_block_is_not_clobbered_by_later_calls():
    sched = SeedSchedule(11)
    first = sched.uniform_block(0, 50, 2)
    kept = first.copy()
    sched.uniform_block(50, 100, 2)
    sched.uniform_block(0, 50, 2)[:] = -1.0
    assert np.array_equal(first, kept)


def test_workspace_rejects_a_block_it_cannot_hold():
    ws = DrawWorkspace(10, 2)
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(0, 11, 2, out=ws)
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(0, 5, 3, out=ws)


def test_uniform_draws_lie_in_the_requested_interval():
    src = SeedSchedule(9).trial_source(0)
    for _ in range(1000):
        x = src.uniform()
        assert 0.0 <= x < 1.0
    # same key replays the same stream
    a = SeedSchedule(9).trial_source(5)
    b = SeedSchedule(9).trial_source(5)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_wilson_quantile_is_the_normal_95_percent_point():
    assert montecarlo._Z95 == NormalDist().inv_cdf(0.975)


def test_wilson_interval_reference_value():
    low, high = wilson_interval(500, 1000)
    assert low == pytest.approx(0.4690696003681042, abs=1e-15)
    assert high == pytest.approx(0.5309303996318958, abs=1e-15)


def test_wilson_interval_never_collapses_at_the_boundaries():
    low, high = wilson_interval(0, 50)
    assert low == 0.0
    assert 0.0 < high < 1.0
    low, high = wilson_interval(50, 50)
    assert 0.0 < low < 1.0
    assert high == pytest.approx(1.0, abs=1e-12)


def test_wilson_interval_input_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


@pytest.mark.parametrize("successes,trials,message", [
    (0, 0, "trials must be >= 1"),
    (5, 3, r"successes must lie in \[0, trials\]"),
    (-1, 3, r"successes must lie in \[0, trials\]"),
], ids=["no-trials", "too-many", "negative"])
def test_estimate_from_counts_checks_its_counts_first(successes, trials,
                                                       message):
    with pytest.raises(ValueError, match=message):
        estimate_from_counts(successes, trials)


def test_wilson_interval_narrows_with_more_trials():
    w1 = wilson_interval(30, 100)
    w2 = wilson_interval(300, 1000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_estimate_from_counts_fields_are_consistent():
    est = estimate_from_counts(300, 1000)
    assert est.mean == 0.3
    assert est.successes == 300
    assert est.trials == 1000
    assert est.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 1000))
    assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0


class _ThresholdIndicator:
    """Success iff the single uniform draw falls below the threshold."""

    n_draws = 1

    def __init__(self, threshold: float):
        self.threshold = threshold

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        return u[:, 0] < self.threshold


def test_runner_is_independent_of_worker_count():
    trials = 3 * CHUNK_TRIALS + 17
    base = run_bernoulli_trials(_ThresholdIndicator(0.42), trials,
                                SeedSchedule(5), workers=1)
    for workers in (2, 4):
        again = run_bernoulli_trials(_ThresholdIndicator(0.42), trials,
                                     SeedSchedule(5), workers=workers)
        assert again.successes == base.successes
        assert again.mean == base.mean
        assert again.ci_low == base.ci_low
        assert again.ci_high == base.ci_high


def test_runner_handles_constant_indicators():
    always = run_bernoulli_trials(_ThresholdIndicator(2.0), 500, SeedSchedule(0))
    never = run_bernoulli_trials(_ThresholdIndicator(-1.0), 500, SeedSchedule(0))
    assert always.mean == 1.0 and always.ci_high == pytest.approx(1.0, abs=1e-12)
    assert never.mean == 0.0 and never.ci_low == 0.0


def test_runner_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 0, SeedSchedule(0))
    with pytest.raises(ValueError):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 10, SeedSchedule(0),
                             workers=0)


def test_runner_caps_workers_before_starting_threads(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("no thread pool may start")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}"):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 10 ** 9, SeedSchedule(0),
                             workers=MAX_WORKERS + 1)
    # at the ceiling a single chunk still runs on the calling thread
    est = run_bernoulli_trials(_ThresholdIndicator(0.5), 100, SeedSchedule(0),
                               workers=MAX_WORKERS)
    assert est == run_bernoulli_trials(_ThresholdIndicator(0.5), 100,
                                       SeedSchedule(0))


class _Sentinel(Exception):
    pass


class _RaisingIndicator:
    """Raises on the first chunk each worker evaluates."""

    n_draws = 1

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        raise _Sentinel


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_memory_does_not_grow_with_trials(workers):
    # 10**10 trials are 305 176 chunks: a list of them alone would take
    # tens of MB, one worker's workspace takes 1.25 MB
    tracemalloc.start()
    try:
        with pytest.raises(_Sentinel):
            run_bernoulli_trials(_RaisingIndicator(), 10 ** 10, SeedSchedule(0),
                                 workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_runner_matches_a_manual_count_across_chunk_boundaries():
    trials = CHUNK_TRIALS + 123
    sched = SeedSchedule(13)
    manual = sum(1 for i in range(trials)
                 if sched.trial_source(i).uniform() < 0.25)
    est = run_bernoulli_trials(_ThresholdIndicator(0.25), trials, sched)
    assert est.successes == manual


def test_interval_coverage_near_nominal_level():
    # 100 independent estimates of a p = 0.3 coin; the 95% interval should
    # cover the truth almost every time (deterministic given the seeds).
    p = 0.3
    covered = 0
    for rep in range(100):
        est = run_bernoulli_trials(_ThresholdIndicator(p), 1000,
                                   SeedSchedule(1000 + rep))
        if est.ci_low <= p <= est.ci_high:
            covered += 1
    assert covered >= 93


# ---- the package's batch indicators on the in-place pipeline ----

_CIRCLE = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
_SEGMENT = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
_ATOMS = RadiusDistribution.from_atoms([(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)])


def _circle_reference(u):
    lo, length = _detection_arc(_CIRCLE)
    return np.mod(u[:, 0] * TWO_PI - lo, TWO_PI / _CIRCLE.n) <= length


def _segment_reference(u):
    s = _SEGMENT
    a = u[:, 0] * s.R
    b = u[:, 1] * (2.0 * s.R / s.n)
    period = 2.0 * s.R / s.n
    x = np.mod(b - a + s.v * s.r / s.u, period)
    return np.minimum(x, period - x) <= s.r / math.sin(math.atan2(s.u, s.v))


def _needle_reference(u):
    return 0.6 * np.sin(u[:, 1] * math.pi) >= u[:, 0] * 1.3


def _random_radius_reference(u):
    cum = np.cumsum([p for _, p in _ATOMS.atoms])
    arcs = [_detection_arc(CircularPatrolScenario(
                R=k * _CIRCLE.R, r=_CIRCLE.r, n=_CIRCLE.n, v=_CIRCLE.v,
                u=_CIRCLE.u))
            for k, _ in _ATOMS.atoms]
    lo = np.array([a for a, _ in arcs])
    length = np.array([b for _, b in arcs])
    idx = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), lo.size - 1)
    return np.mod(u[:, 1] * TWO_PI - lo[idx], TWO_PI / _CIRCLE.n) <= length[idx]


# (indicator, out-of-place formula with the same floating-point operations)
_INDICATORS = {
    "circle": (lambda: circular._indicator(_CIRCLE), _circle_reference),
    "segment": (lambda: linear._indicator(_SEGMENT), _segment_reference),
    "needle": (lambda: _NeedleIndicator(0.6, 1.3), _needle_reference),
    "random_radius": (lambda: randomradius._indicator(_CIRCLE, _ATOMS),
                      _random_radius_reference),
}


@pytest.mark.parametrize("name", sorted(_INDICATORS))
def test_in_place_indicators_match_their_out_of_place_formulas(name):
    make, reference = _INDICATORS[name]
    indicator = make()
    u = SeedSchedule(404).uniform_block(0, 50_000, indicator.n_draws)
    expected = reference(u)
    assert 0 < np.count_nonzero(expected) < expected.size
    # strided columns (a row-major copy), then the contiguous ones
    for block in (u.copy(order="C"), u):
        assert np.array_equal(indicator.evaluate_batch(block), expected)


@pytest.mark.parametrize("name", sorted(_INDICATORS))
def test_indicator_counts_ignore_chunk_size_and_workers(name, monkeypatch):
    make, _ = _INDICATORS[name]
    indicator = make()
    trials = 8192 + 300
    sched = SeedSchedule(8080)
    u = sched.uniform_block(0, trials, indicator.n_draws)
    expected = int(np.count_nonzero(indicator.evaluate_batch(u)))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave worker threads as much as possible
    try:
        for chunk in (1, 7, 8192, CHUNK_TRIALS, trials + 1):
            monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
            for workers in (1, 2, 3):
                est = run_bernoulli_trials(indicator, trials, sched, workers)
                assert est.successes == expected, (chunk, workers)
    finally:
        sys.setswitchinterval(switch)


def test_fold_models_keep_their_success_counts():
    # the counts of the shared fold kernel at REF, 10**5 trials, seed 1729
    assert mc_probability(_CIRCLE, 100_000, 1729).successes == 35689
    assert mc_probability_linear(_SEGMENT, 100_000, 1729).successes == 56118
    assert mc_probability_random_radius(
        _CIRCLE, _ATOMS, 100_000, 1729).successes == 36245


@pytest.mark.parametrize("trials,workers,message", [
    (1000.0, 1, "trials must be an integer"),
    (True, 1, "trials must be an integer"),
    (1000, 1.0, "workers must be an integer"),
    (1000, True, "workers must be an integer"),
], ids=["float-trials", "bool-trials", "float-workers", "bool-workers"])
def test_run_sizes_must_be_integers(trials, workers, message):
    circular = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
    linear = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
    dist = RadiusDistribution.from_atoms([(0.9, 0.5), (1.1, 0.5)])
    for run in (lambda: mc_probability(circular, trials, 1, workers),
                lambda: mc_probability_linear(linear, trials, 1, workers),
                lambda: mc_probability_random_radius(circular, dist, trials, 1,
                                                     workers),
                lambda: buffon_mc(NeedleProblem(1.0, 1.0), trials, 1, workers)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run()
    assert mc_probability(circular, np.int64(1000), 1, np.int64(1)).trials == 1000


# ---- seeds ----

@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int32(5)],
                         ids=["int64", "uint64", "int32"])
def test_a_numpy_integer_seed_reads_as_the_equal_int(seed):
    process = PiecewiseRadiusProcess(states=(0.8, 1.2), dwell=1.0,
                                     horizon=200.0, transition="random")
    indicator = circular._indicator(_CIRCLE)
    assert (_count_scalar(indicator, 1000, SeedSchedule(seed))
            == _count_scalar(indicator, 1000, SeedSchedule(5)))
    assert mc_probability(_CIRCLE, 1000, seed).successes == 367
    for run in (lambda k: mc_probability_linear(_SEGMENT, 1000, k),
                lambda k: mc_probability_random_radius(_CIRCLE, _ATOMS, 1000, k),
                lambda k: buffon_mc(NeedleProblem(1.0, 1.3), 1000, k),
                lambda k: ergodic_time_average(process, k),
                lambda k: SeedSchedule(k).trial_key(3),
                lambda k: SeedSchedule(k).uniform_block(2, 9, 2).tolist()):
        assert run(seed) == run(5)


class _UnreachedIndicator:
    """Fails the test if a trial is ever evaluated."""

    n_draws = 1

    def evaluate_batch(self, u):
        raise AssertionError("a trial was evaluated")

    count_lanes = evaluate_batch


@pytest.mark.parametrize("seed", [True, False, 2.5, 5.0, "5", None],
                         ids=["true", "false", "float", "integral-float",
                              "str", "none"])
def test_a_seed_that_is_not_an_integer_is_a_value_error(seed):
    process = PiecewiseRadiusProcess(states=(0.8, 1.2), dwell=1.0,
                                     horizon=200.0, transition="random")
    schedule = SeedSchedule(seed)
    for run in (lambda: _count_scalar(_UnreachedIndicator(), 10, schedule),
                lambda: run_bernoulli_trials(_UnreachedIndicator(), 10,
                                             schedule),
                lambda: run_bernoulli_trials(_UnreachedIndicator(),
                                             3 * CHUNK_TRIALS, schedule, 2),
                lambda: mc_probability(_CIRCLE, 10, seed),
                lambda: mc_probability_linear(_SEGMENT, 10, seed),
                lambda: mc_probability_random_radius(_CIRCLE, _ATOMS, 10, seed),
                lambda: buffon_mc(NeedleProblem(1.0, 1.3), 10, seed),
                lambda: ergodic_time_average(process, seed),
                lambda: schedule.trial_key(0),
                lambda: schedule.trial_source(0),
                lambda: schedule.uniform_block(0, 4, 1)):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            run()


# ---- the scalar path: the same counts without numpy ----

_POINT_MASS = RadiusDistribution.from_atoms([(1.0, 1.0)])
_FOLD_MODELS = ("circle", "segment", "random_radius", "point_mass")


def _fold_indicator(model, e=0.05, w=2.0, n=10):
    """A fold model's indicator at R = 1, r/R = e (half that on the
    segment, whose 2r must stay below R), v/u = w and n vehicles."""
    if model == "segment":
        return linear._indicator(LinearPatrolScenario(
            R=1.0, r=e / 2.0, n=n, v=w, u=1.0))
    s = CircularPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0)
    if model == "circle":
        return circular._indicator(s)
    return randomradius._indicator(
        s, _ATOMS if model == "random_radius" else _POINT_MASS)


def _vector_count(indicator, trials, seed):
    # numpy is loaded in this process, so the runner takes the vector path
    assert "numpy" in sys.modules
    return run_bernoulli_trials(indicator, trials, SeedSchedule(seed)).successes


_SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.integers(0, 2 ** 64 - 1),
                   st.integers(2 ** 64, 2 ** 70))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(_FOLD_MODELS),
       st.floats(-3.0, math.log10(0.7)).map(lambda x: 10.0 ** x),
       st.one_of(st.just(0.0),
                 st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x)),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 6)),
       st.integers(1, 300), _SEEDS)
def test_scalar_and_vector_paths_count_the_same_successes(model, e, w, n,
                                                          trials, seed):
    indicator = _fold_indicator(model, e, w, n)
    assert (_count_scalar(indicator, trials, SeedSchedule(seed))
            == _vector_count(indicator, trials, seed))


@pytest.mark.parametrize("trials,seed", [
    (1, -1), (CHUNK_TRIALS - 1, 2 ** 64 + 1), (CHUNK_TRIALS, 7),
    (CHUNK_TRIALS + 1, 2 ** 63 + 12345),
])
def test_scalar_and_vector_counts_agree_around_the_allowance(trials, seed):
    # at CHUNK_TRIALS the vector path crosses a chunk boundary, which is
    # also a boundary of the scalar path's blocks of _LANES trials; the
    # allowance itself is counted in draws, tested at its own boundary below
    for model in _FOLD_MODELS:
        indicator = _fold_indicator(model)
        assert (_count_scalar(indicator, trials, SeedSchedule(seed))
                == _vector_count(indicator, trials, seed)), model


@pytest.mark.parametrize("model", _FOLD_MODELS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_scalar_and_vector_counts_agree_at_the_draw_allowance(model, extra):
    # the largest request the allowance admits, and one trial either side
    indicator = _fold_indicator(model)
    trials = _SCALAR_DRAWS // indicator.n_draws + extra
    assert (_count_scalar(indicator, trials, SeedSchedule(2 ** 64 - 3))
            == _vector_count(indicator, trials, 2 ** 64 - 3))


def test_a_draw_past_the_last_cumulative_weight_takes_the_last_atom():
    # weights whose sum rounds below 1 leave draws past the last cumulative
    # weight; both paths pick the last atom for them, as a sum of exactly
    # 1 would place them
    def atoms(weights):
        return circular._FoldIndicator(10, TWO_PI, (0.0, -0.3), (0.2, 0.5),
                                       weights)

    short, whole = atoms((0.5, 0.4)), atoms((0.5, 0.5))
    expected = _count_scalar(whole, 5000, SeedSchedule(3))
    assert _count_scalar(short, 5000, SeedSchedule(3)) == expected
    assert _vector_count(short, 5000, 3) == expected


def test_a_trial_on_the_window_edge_is_detected_on_both_paths():
    # x = 2*pi*0.5 = pi exactly, so (x - lo) mod period = length: tangency
    # counts as detection
    indicator = circular._FoldIndicator(1, TWO_PI, 0.0, math.pi)
    assert indicator.count_lanes([[0.5, 0.75]]) == 1
    assert indicator.evaluate_batch(np.array([[0.5], [0.75]])).tolist() == [
        True, False]


def test_a_draw_on_a_cumulative_weight_takes_the_next_atom_on_both_paths():
    # cumulative weights 0.25, 0.75, 1; the windows [0, 1], [0, 3], [0, 4]
    # hold x = 2*pi*0.4 ~ 2.51 in the last two atoms only
    indicator = circular._FoldIndicator(1, TWO_PI, (0.0, 0.0, 0.0),
                                        (1.0, 3.0, 4.0), (0.25, 0.5, 0.25))
    picks = [0.0, 0.25, 0.75, 0.999]
    assert [indicator.count_lanes([[pick], [0.4]]) for pick in picks] == [
        0, 1, 1, 1]
    u = np.column_stack([picks, [0.4] * len(picks)])
    assert indicator.evaluate_batch(u).tolist() == [False, True, True, True]


def test_a_window_of_a_whole_period_reads_exactly_one():
    # n*(2*pi/n)/(2*pi) rounds below 1 at n = 75, 150 and 167, and so does
    # the saturated segment window at n = 49, whose closed form reads 1
    for n in (75, 150, 167):
        indicator = circular._FoldIndicator(n, TWO_PI, 0.0, TWO_PI / n)
        assert indicator.exact() == 1.0, n
    assert linear._indicator(LinearPatrolScenario(
        R=100.0, r=40.0, n=49, v=2.0, u=1.0)).exact() == 1.0


class _Recorder:
    """Records the draws the scalar path hands each trial, one tuple per
    trial out of each block's columns; detects none."""

    def __init__(self, n_draws):
        self.n_draws, self.seen = n_draws, []

    def count_lanes(self, columns):
        assert len(columns) == self.n_draws
        self.seen.extend(zip(*columns, strict=True))
        return 0


_LANE_SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.integers(2 ** 64, 2 ** 70),
                        st.integers(0, 2 ** 63 - 1).map(np.int64),
                        st.integers(0, 2 ** 64 - 1).map(np.uint64))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_LANE_SEEDS, st.integers(1, 3),
       st.sampled_from([1, _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 17]))
def test_lane_draws_equal_trial_source_draws(seed, n_draws, trials):
    schedule = SeedSchedule(seed)
    recorder = _Recorder(n_draws)
    assert _count_scalar(recorder, trials, schedule) == 0
    sources = map(schedule.trial_source, range(trials))
    assert recorder.seen == [tuple(src.uniform() for _ in range(n_draws))
                             for src in sources]
    key = schedule.trial_key(trials)
    source = TrialSource(key)
    assert list(_trial_draws(key, trials)) == [source.uniform()
                                               for _ in range(trials)]


def _python_calls(run) -> int:
    """Python frames entered while run() runs, counted by a profile hook."""
    calls = [0]

    def profile(frame, event, arg):
        calls[0] += event == "call"

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("model", _FOLD_MODELS)
def test_the_lane_path_enters_no_python_frame_per_trial(model):
    # a block of 1024 trials costs a few Python calls (the lane steps, the
    # seed read, count_lanes and the draw map), whatever its trials: seven
    # blocks more may add at most 32 calls a block, where one call per
    # trial adds 1024
    indicator = _fold_indicator(model)
    schedule = SeedSchedule(11)
    one = _python_calls(lambda: _count_scalar(indicator, _LANES, schedule))
    eight = _python_calls(lambda: _count_scalar(indicator, 8 * _LANES, schedule))
    assert eight - one <= 7 * 32


_ALLOWANCE_PROBE = """
import json, sys
from patrolgeom.montecarlo import _SCALAR_DRAWS
from patrolgeom.circular import mc_probability
from patrolgeom.linear import mc_probability_linear
from patrolgeom.randomradius import (RadiusDistribution,
                                     mc_probability_random_radius)
from patrolgeom.scenario import CircularPatrolScenario, LinearPatrolScenario
circle = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
segment = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
atoms = RadiusDistribution.from_atoms([(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)])
out = []
for run in (lambda: mc_probability(circle, 30000, 7),
            lambda: mc_probability_linear(segment, (_SCALAR_DRAWS - 30000) // 2,
                                          8),
            lambda: mc_probability_random_radius(circle, atoms, 1, 9),
            lambda: mc_probability(circle, 10, 10)):
    out.append([run().successes, "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_the_scalar_allowance_is_spent_across_requests():
    # a fresh process: the first two requests spend the allowance of draws
    # exactly (30 000 one-draw circle trials, then two-draw segment trials),
    # the third's two draws no longer fit and load numpy, and the fourth,
    # though small, stays on numpy
    assert (_SCALAR_DRAWS - 30000) % 2 == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _ALLOWANCE_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    expected = [
        mc_probability(_CIRCLE, 30000, 7).successes,
        mc_probability_linear(_SEGMENT, (_SCALAR_DRAWS - 30000) // 2,
                              8).successes,
        mc_probability_random_radius(_CIRCLE, _ATOMS, 1, 9).successes,
        mc_probability(_CIRCLE, 10, 10).successes,
    ]
    assert json.loads(proc.stdout) == [[k, loaded] for k, loaded in zip(
        expected, [False, False, True, True])]
